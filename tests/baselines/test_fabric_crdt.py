"""Tests for the FabricCRDT baseline (ordering + JSON CRDT merge)."""

import pytest

from repro.baselines import FabricCRDTNetwork
from repro.bench.config import ExperimentConfig
from repro.errors import ConfigError


def fabric_crdt_config(app="voting", seed=1, quorum=2):
    return ExperimentConfig(
        system="fabriccrdt", app=app, num_orgs=4, quorum=quorum, seed=seed, scale=1
    )


def build(**fields):
    return FabricCRDTNetwork(fabric_crdt_config(**fields))


def test_settings_validation():
    with pytest.raises(ConfigError):
        fabric_crdt_config(quorum=0)
    with pytest.raises(ConfigError):
        fabric_crdt_config(app="poker")


def test_single_vote_merges_at_all_peers():
    net = build()
    client = net.add_client("c0")
    process = net.sim.process(
        client.submit_modify({"voter": "c0", "party": "p1", "election": "e0"})
    )
    net.run(until=10.0)
    assert process.value is True
    for peer in net.replicas:
        doc = peer.documents["voting/e0/p1"]
        assert doc.value() == {"c0": True}
    assert net.converged()


def test_concurrent_votes_do_not_fail():
    # The defining difference from Fabric: no MVCC validation; all
    # transactions merge.
    net = build(seed=2)
    a, b = net.add_client("a"), net.add_client("b")
    pa = net.sim.process(a.submit_modify({"voter": "a", "party": "p1", "election": "e0"}))
    pb = net.sim.process(b.submit_modify({"voter": "b", "party": "p1", "election": "e0"}))
    net.run(until=10.0)
    assert pa.value is True and pb.value is True
    doc = net.replicas[0].documents["voting/e0/p1"]
    assert doc.value() == {"a": True, "b": True}


def test_documents_grow_with_modifications():
    net = build(seed=3)
    clients = [net.add_client(f"c{i}") for i in range(4)]
    for client in clients:
        net.sim.process(
            client.submit_modify({"voter": client.client_id, "party": "p1", "election": "e0"})
        )
    net.run(until=15.0)
    doc = net.replicas[0].documents["voting/e0/p1"]
    assert doc.size() == 4  # metadata grows with every update


def test_read_counts_merged_votes():
    net = build(seed=4)
    voter, reader = net.add_client("v"), net.add_client("r")

    def scenario():
        yield net.sim.process(voter.submit_modify({"voter": "v", "party": "p1", "election": "e0"}))
        values = yield net.sim.process(reader.submit_read({"party": "p1", "election": "e0"}))
        return values

    process = net.sim.process(scenario())
    net.run(until=15.0)
    assert process.value == [1, 1]


def test_auction_cumulative_bids_lww():
    net = build(app="auction", seed=5)
    client = net.add_client("alice")

    def scenario():
        yield net.sim.process(
            client.submit_modify(
                {"auction": "a0", "bidder": "alice", "amount": 10, "cumulative": 10}
            )
        )
        yield net.sim.process(
            client.submit_modify(
                {"auction": "a0", "bidder": "alice", "amount": 5, "cumulative": 15}
            )
        )
        value = yield net.sim.process(client.submit_read({"auction": "a0"}))
        return value

    process = net.sim.process(scenario())
    net.run(until=20.0)
    assert process.value[0] == {"bidder": "alice", "amount": 15}
