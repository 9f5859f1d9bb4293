"""Tests for the Sync HotStuff baseline (synchronous leader BFT)."""

import pytest

from repro.baselines import SyncHotStuffNetwork
from repro.bench.config import ExperimentConfig
from repro.errors import ConfigError


def build(seed=1, num_orgs=4, app="voting"):
    # Sync HotStuff reads no endorsement quorum; q=1 is valid for any n.
    return SyncHotStuffNetwork(
        ExperimentConfig(
            system="synchotstuff", app=app, num_orgs=num_orgs, quorum=1, seed=seed, scale=1
        )
    )


def test_settings_validation():
    with pytest.raises(ConfigError, match="at least 2 organizations"):
        build(num_orgs=1)
    with pytest.raises(ConfigError):
        build(app="poker")


def test_three_orgs_build_with_default_settings():
    # n=3 is above Sync HotStuff's own minimum of two organizations.
    net = build(num_orgs=3)
    assert net.node_ids == ["org0", "org1", "org2"]


def test_commit_happens_after_two_delta():
    net = build()
    client = net.add_client("c0")
    process = net.sim.process(
        client.submit_modify({"voter": "c0", "party": "p1", "election": "e0"})
    )
    net.run(until=10.0)
    assert process.value is True
    latency = net.recorder.latencies("modify")[0]
    # Lower bound: client->leader + batch + proposal + 2Δ + notify.
    assert latency >= 2 * net.perf.hotstuff_delta


def test_all_replicas_commit_the_block():
    net = build(seed=2)
    client = net.add_client("c0")
    net.sim.process(client.submit_modify({"voter": "c0", "party": "p1", "election": "e0"}))
    net.run(until=10.0)
    assert all(org.committed == 1 for org in net.replicas)
    assert net.converged()


def test_ordered_execution_counts_all_votes():
    net = build(seed=3)
    clients = [net.add_client(f"c{i}") for i in range(5)]
    processes = [
        net.sim.process(c.submit_modify({"voter": c.client_id, "party": "p1", "election": "e0"}))
        for c in clients
    ]
    net.run(until=10.0)
    assert all(p.value is True for p in processes)
    org = net.replicas[0]
    assert org.contract.read(org.state, {"party": "p1", "election": "e0"}) == 5


def test_reads_through_consensus():
    net = build(seed=4)
    voter, reader = net.add_client("v"), net.add_client("r")

    def scenario():
        yield net.sim.process(voter.submit_modify({"voter": "v", "party": "p1", "election": "e0"}))
        value = yield net.sim.process(reader.submit_read({"party": "p1", "election": "e0"}))
        return value

    process = net.sim.process(scenario())
    net.run(until=10.0)
    assert process.value == 1


def test_phase_breakdown_recorded():
    net = build(seed=5)
    client = net.add_client("c0")
    net.sim.process(client.submit_modify({"voter": "c0", "party": "p1", "election": "e0"}))
    net.run(until=10.0)
    assert "hotstuff/P1/Consensus" in net.recorder.phase_durations
    assert "hotstuff/P2/Commit" in net.recorder.phase_durations
    # Consensus (leader-side) dominates commit, as in Table 3.
    assert net.recorder.mean_phase("hotstuff/P1/Consensus") > net.recorder.mean_phase(
        "hotstuff/P2/Commit"
    )
