"""Tracing is passive: it must not change simulated results.

The acceptance bar from the issue: a traced run and an untraced run
with the same seed produce *byte-identical* ledger state. Recorders
only observe (no RNG draws, no protocol events), so the only effect of
enabling them is extra appends to Python lists — the simulation's
(time, sequence) event order is untouched (see ``repro.sim.core``).
"""

import json

from repro.contracts import AuctionContract
from repro.core import OrderlessChainNetwork, OrderlessChainSettings
from repro.obs import Observability, TraceCollector


def run_once(observability=None, seed=11, plug=None):
    settings = OrderlessChainSettings(num_orgs=6, quorum=3, seed=seed)
    net = OrderlessChainNetwork(settings)
    if observability is not None:
        net.attach_observability(observability)
    if plug is not None:
        net.recorder.trace = net.network.tracer = plug
    net.install_contract(AuctionContract)
    clients = [net.add_client() for _ in range(3)]

    def driver():
        for index in range(24):
            client = clients[index % len(clients)]
            net.sim.process(
                client.submit_modify(
                    "auction",
                    "bid",
                    {"auction": f"a{index % 4}", "amount": 5 + index},
                )
            )
            yield net.sim.timeout(0.05)

    net.sim.process(driver(), name="driver")
    net.run(until=30.0)
    return net


def ledger_bytes(net):
    """Byte-exact serialization of every organization's ledger state."""
    return [
        json.dumps(org.state_snapshot(), sort_keys=True).encode() for org in net.organizations
    ]


def head_hashes(net):
    return [org.ledger.log.head_hash for org in net.organizations]


def recorder_outcomes(net):
    return {
        txn_id: (record.submitted_at, record.committed_at, record.failed_at)
        for txn_id, record in net.recorder.records.items()
    }


def test_traced_and_untraced_runs_are_byte_identical():
    untraced = run_once()
    obs = Observability(trace=True, sample_interval=0.5)
    traced = run_once(obs)
    # The traced run really traced (guard against a vacuous pass) ...
    assert obs.trace.spans and obs.trace.samples
    # ... and changed nothing the simulation computed.
    assert ledger_bytes(traced) == ledger_bytes(untraced)
    assert head_hashes(traced) == head_hashes(untraced)
    assert recorder_outcomes(traced) == recorder_outcomes(untraced)
    assert traced.sim.now == untraced.sim.now


def test_plugged_in_recorder_is_equally_passive():
    untraced = run_once()
    plug = TraceCollector()
    traced = run_once(plug=plug)
    assert plug.spans
    assert ledger_bytes(traced) == ledger_bytes(untraced)
    assert head_hashes(traced) == head_hashes(untraced)


def test_different_seeds_do_differ():
    # Sanity check that the comparisons are discriminating at all. The
    # *converged CRDT state* is seed-independent by design (the fixed
    # workload commutes), so discriminate on timing-dependent artifacts:
    # commit timestamps and the order-sensitive ledger head hash.
    a, b = run_once(seed=11), run_once(seed=12)
    assert recorder_outcomes(a) != recorder_outcomes(b)
    assert head_hashes(a) != head_hashes(b)
