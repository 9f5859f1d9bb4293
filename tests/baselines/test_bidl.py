"""Tests for the BIDL baseline (sequencer + parallel consensus)."""

import pytest

from repro.baselines import BIDLNetwork
from repro.bench.config import ExperimentConfig
from repro.errors import ConfigError


def build(seed=1, num_orgs=4, app="voting"):
    # BIDL reads no endorsement quorum; q=1 is valid for any n.
    return BIDLNetwork(
        ExperimentConfig(
            system="bidl", app=app, num_orgs=num_orgs, quorum=1, seed=seed, scale=1
        )
    )


def test_settings_validation():
    with pytest.raises(ConfigError, match="BIDL consensus needs >= 4"):
        build(num_orgs=3)
    with pytest.raises(ConfigError):
        build(app="poker")


def test_quorum_math():
    net = build(num_orgs=16)
    assert net.fault_tolerance == 5
    assert net.vote_quorum == 11


def test_transaction_flows_through_pipeline():
    net = build()
    client = net.add_client("c0")
    process = net.sim.process(
        client.submit_modify({"voter": "c0", "party": "p1", "election": "e0"})
    )
    net.run(until=10.0)
    assert process.value is True
    assert net.sequencer.items_processed == 1
    assert net.leader.items_processed == 1
    for org in net.replicas:
        assert org.committed == 1
    # All four phases recorded for Table 3.
    for phase in ("bidl/P1/Sequence", "bidl/P2/Consensus", "bidl/P3/Execution", "bidl/P4/Commit"):
        assert phase in net.recorder.phase_durations


def test_sequential_execution_avoids_mvcc_style_failures():
    net = build(seed=2)
    clients = [net.add_client(f"c{i}") for i in range(4)]
    processes = [
        net.sim.process(c.submit_modify({"voter": c.client_id, "party": "p1", "election": "e0"}))
        for c in clients
    ]
    net.run(until=10.0)
    assert all(p.value is True for p in processes)
    # Sequenced execution: the tally equals the number of votes.
    org = net.replicas[0]
    assert org.contract.read(org.state, {"party": "p1", "election": "e0"}) == 4


def test_reads_travel_the_consensus_pipeline():
    net = build(seed=3)
    voter, reader = net.add_client("v"), net.add_client("r")

    def scenario():
        yield net.sim.process(voter.submit_modify({"voter": "v", "party": "p1", "election": "e0"}))
        value = yield net.sim.process(reader.submit_read({"party": "p1", "election": "e0"}))
        return value

    process = net.sim.process(scenario())
    net.run(until=10.0)
    assert process.value == 1
    # BFT reads: read latency tracks modify latency (paper's labels).
    read_latency = net.recorder.latencies("read")[0]
    modify_latency = net.recorder.latencies("modify")[0]
    assert read_latency == pytest.approx(modify_latency, rel=0.6)


def test_org_states_converge():
    net = build(seed=4)
    clients = [net.add_client(f"c{i}") for i in range(3)]
    for client in clients:
        net.sim.process(
            client.submit_modify({"voter": client.client_id, "party": "p2", "election": "e0"})
        )
    net.run(until=10.0)
    assert net.converged()
