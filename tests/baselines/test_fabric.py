"""Tests for the Fabric baseline (execute-order-validate + MVCC)."""

import pytest

from repro.baselines import FabricNetwork
from repro.bench.config import ExperimentConfig
from repro.errors import ConfigError


def fabric_config(app="voting", seed=1, num_orgs=4, quorum=2, **fields):
    return ExperimentConfig(
        system="fabric", app=app, num_orgs=num_orgs, quorum=quorum, seed=seed, scale=1, **fields
    )


def build(**fields):
    return FabricNetwork(fabric_config(**fields))


def test_settings_validation():
    with pytest.raises(ConfigError):
        fabric_config(num_orgs=4, quorum=5)
    with pytest.raises(ConfigError):
        fabric_config(app="poker")


def test_single_vote_commits_through_ordering():
    net = build()
    client = net.add_client("c0")
    process = net.sim.process(
        client.submit_modify({"voter": "c0", "party": "p1", "election": "e0"})
    )
    net.run(until=10.0)
    assert process.value is True
    assert len(net.recorder.successes()) == 1
    # Blocks reach every peer.
    for peer in net.replicas:
        assert peer.committed_valid == 1
    assert net.converged()


def test_concurrent_votes_same_party_fail_mvcc():
    net = build(seed=3)
    a, b = net.add_client("a"), net.add_client("b")
    pa = net.sim.process(a.submit_modify({"voter": "a", "party": "p1", "election": "e0"}))
    pb = net.sim.process(b.submit_modify({"voter": "b", "party": "p1", "election": "e0"}))
    net.run(until=10.0)
    outcomes = sorted([pa.value, pb.value])
    assert outcomes == [False, True]
    failed = [r for r in net.recorder.records.values() if r.failure_reason == "mvcc conflict"]
    assert len(failed) == 1


def test_votes_for_different_parties_do_not_conflict():
    net = build(seed=4)
    a, b = net.add_client("a"), net.add_client("b")
    pa = net.sim.process(a.submit_modify({"voter": "a", "party": "p1", "election": "e0"}))
    pb = net.sim.process(b.submit_modify({"voter": "b", "party": "p2", "election": "e0"}))
    net.run(until=10.0)
    assert pa.value is True and pb.value is True


def test_reads_bypass_ordering_and_are_fast():
    net = build(seed=5)
    writer, reader = net.add_client("w"), net.add_client("r")

    def scenario():
        yield net.sim.process(writer.submit_modify({"voter": "w", "party": "p1", "election": "e0"}))
        values = yield net.sim.process(reader.submit_read({"party": "p1", "election": "e0"}))
        return values

    process = net.sim.process(scenario())
    net.run(until=10.0)
    assert process.value == [1, 1]
    read_latency = net.recorder.latencies("read")[0]
    modify_latency = net.recorder.latencies("modify")[0]
    assert read_latency < modify_latency


def test_peers_apply_blocks_identically():
    net = build(seed=6)
    clients = [net.add_client(f"c{i}") for i in range(5)]
    for i, client in enumerate(clients):
        net.sim.process(client.submit_modify({"voter": f"c{i}", "party": f"p{i % 2}", "election": "e0"}))
    net.run(until=15.0)
    assert net.converged()


def test_orderer_batches_accumulate():
    net = build(seed=7)
    clients = [net.add_client(f"c{i}") for i in range(3)]
    for i, client in enumerate(clients):
        net.sim.process(client.submit_modify({"voter": f"c{i}", "party": f"p{i}", "election": "e0"}))
    net.run(until=10.0)
    assert net.orderer.items_processed == 3
    assert net.orderer.batches_cut >= 1
    # Phase breakdown recorded for Table 3.
    assert "fabric/P1/Endorse" in net.recorder.phase_durations
    assert "fabric/P2/Consensus" in net.recorder.phase_durations
    assert "fabric/P3/Commit" in net.recorder.phase_durations


def test_auction_app_on_fabric():
    net = build(app="auction", seed=8)
    client = net.add_client("alice")

    def scenario():
        yield net.sim.process(client.submit_modify({"auction": "a0", "bidder": "alice", "amount": 10}))
        value = yield net.sim.process(client.submit_read({"auction": "a0"}))
        return value

    process = net.sim.process(scenario())
    net.run(until=15.0)
    assert process.value[0] == {"bidder": "alice", "amount": 10}


class TestRaftOrderer:
    def test_raft_settings_validated(self):
        with pytest.raises(ConfigError):
            fabric_config(orderer_type="kafka")

    def test_raft_commits_and_converges(self):
        net = build(seed=9, orderer_type="raft")
        clients = [net.add_client(f"c{i}") for i in range(3)]
        processes = [
            net.sim.process(
                c.submit_modify({"voter": c.client_id, "party": f"p{i}", "election": "e0"})
            )
            for i, c in enumerate(clients)
        ]
        net.run(until=15.0)
        assert all(p.value is True for p in processes)
        assert net.converged()

    def test_raft_replication_adds_latency_over_solo(self):
        def run(orderer_type):
            net = build(seed=1, orderer_type=orderer_type)
            client = net.add_client("c0")
            net.sim.process(
                client.submit_modify({"voter": "c0", "party": "p1", "election": "e0"})
            )
            net.run(until=10.0)
            return net.recorder.latencies("modify")[0]

        # One WAN round trip of follower replication per block.
        assert run("raft") > run("solo") + 0.05
