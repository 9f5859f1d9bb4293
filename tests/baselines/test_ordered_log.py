"""The ordered-log repair path shared by all four baselines.

Fetch requests and announcements arrive from other nodes, so a
malformed one must be dropped — never raised out of the handler, which
would abort the whole simulation.
"""

import pytest

from repro.net.message import Message

from ..chaos.harness import build_system

SYSTEMS = ("fabric", "fabriccrdt", "bidl", "synchotstuff")

MALFORMED = [
    ("fetch", {}),
    ("fetch", {"from": "x"}),
    ("fetch", {"from": None}),
    ("fetch", {"from": True}),
    ("announce", {}),
]


def _votes(net, count=3):
    """One vote per client, each for its own party (no MVCC conflicts)."""
    clients = [net.add_client(f"c{index}") for index in range(count)]
    return [
        net.sim.process(
            client.submit_modify({"voter": client.client_id, "party": f"p{index}", "election": "e0"})
        )
        for index, client in enumerate(clients)
    ]


def _repair_message(net, kind, body):
    log = net.log
    if kind == "fetch":
        return Message(
            sender=net.node_ids[0],
            recipient=log.source_id,
            msg_type=log.fetch_type,
            body=body,
            size_bytes=96,
        )
    return Message(
        sender=log.source_id,
        recipient=net.node_ids[0],
        msg_type=log.announce_type,
        body=body,
        size_bytes=64,
    )


@pytest.mark.parametrize("kind,body", MALFORMED, ids=str)
@pytest.mark.parametrize("system", SYSTEMS)
def test_malformed_repair_body_is_dropped(system, kind, body):
    net = build_system(system, seed=1)
    processes = _votes(net)
    # Mid-run, once the log has entries to re-send.
    net.sim.schedule(2.0, net.network.send, _repair_message(net, kind, body))
    net.run(until=15.0)
    assert all(process.value is True for process in processes)
    assert net.converged()


@pytest.mark.parametrize("system", SYSTEMS)
def test_negative_fetch_index_resends_the_whole_log(system):
    net = build_system(system, seed=1)
    processes = _votes(net)
    net.run(until=10.0)
    assert all(process.value is True for process in processes)
    log = net.log
    sent = net.network.sent_by_type[log.entry_type]
    net.network.send(_repair_message(net, "fetch", {"from": -3}))
    net.run(until=11.0)
    assert net.network.sent_by_type[log.entry_type] - sent == len(log.entries) > 0
    assert net.converged()
