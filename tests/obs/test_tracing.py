"""Tracing tests: spans nest correctly with monotone sim-timestamps.

Builds a small traced OrderlessChain network, runs a handful of
transactions, and checks the structural invariants the observability
layer promises (docs/OBSERVABILITY.md): client-side lifecycle spans
wrap the per-phase waits, organization-side sub-phases nest inside
their parents, all timestamps are monotone simulated seconds, and the
node sampler's gauges stay in range.
"""

import pytest

from repro.bench.config import ExperimentConfig
from repro.bench.runner import run_experiment
from repro.contracts import AuctionContract
from repro.core import OrderlessChainNetwork
from repro.errors import ConfigError
from repro.obs import Observability, Recorder, TraceCollector


def run_traced(trace=True, sample_interval=0.0, bids=6, plug=None):
    """A small auction run; ``plug`` is set as the run's trace sink
    directly, without an :class:`Observability`."""
    config = ExperimentConfig(num_orgs=4, quorum=2, seed=7, scale=1)
    net = OrderlessChainNetwork(config)
    obs = None
    if plug is not None:
        net.recorder.trace = net.network.tracer = plug
    else:
        obs = Observability(trace=trace, sample_interval=sample_interval)
        net.attach_observability(obs)
    net.install_contract(AuctionContract)
    clients = [net.add_client() for _ in range(2)]

    def driver():
        for index in range(bids):
            client = clients[index % len(clients)]
            net.sim.process(
                client.submit_modify(
                    "auction", "bid", {"auction": f"a{index % 2}", "amount": 5 + index}
                )
            )
            yield net.sim.timeout(0.1)

    net.sim.process(driver(), name="driver")
    net.run(until=30.0)
    return net, obs


@pytest.fixture(scope="module")
def traced():
    return run_traced(sample_interval=0.5)


def spans_named(collector, name, txn_id):
    return [s for s in collector.spans_for_txn(txn_id) if s.name == name]


def test_run_actually_traced(traced):
    net, obs = traced
    assert obs.trace is not None
    assert obs.trace.spans, "traced run collected no spans"
    assert obs.trace.txn_ids(), "no spans carried a transaction id"


def test_client_txn_span_wraps_phase_waits(traced):
    _, obs = traced
    collector = obs.trace
    lifecycles = collector.spans_named("client/txn")
    assert lifecycles
    for txn in lifecycles:
        for wait in spans_named(collector, "client/endorse_wait", txn.txn_id):
            assert txn.contains(wait)
        for wait in spans_named(collector, "client/commit_wait", txn.txn_id):
            assert txn.contains(wait)
        # The commit wait starts only after an endorse wait ended.
        endorse = spans_named(collector, "client/endorse_wait", txn.txn_id)
        commit = spans_named(collector, "client/commit_wait", txn.txn_id)
        if endorse and commit:
            assert min(c.start for c in commit) >= max(e.end for e in endorse)


def test_org_phase1_subspans_nest_inside_execution(traced):
    _, obs = traced
    collector = obs.trace
    executions = collector.spans_named("orderlesschain/P1/Execution")
    assert executions
    for execution in executions:
        same_site = [
            s
            for s in collector.spans_for_txn(execution.txn_id)
            if s.node == execution.node
        ]
        queues = [s for s in same_site if s.name == "orderlesschain/P1/Queue"]
        cpus = [s for s in same_site if s.name == "orderlesschain/P1/CPU"]
        assert queues and cpus
        for queue in queues:
            assert execution.contains(queue)
        for cpu in cpus:
            assert execution.contains(cpu)
        # Queueing hands off to CPU service at the slot-granted instant.
        assert queues[0].end == cpus[0].start


def test_org_phase2_subspans_nest_inside_commit(traced):
    _, obs = traced
    collector = obs.trace
    commits = collector.spans_named("orderlesschain/P2/Commit")
    assert commits
    for commit in commits:
        same_site = [
            s for s in collector.spans_for_txn(commit.txn_id) if s.node == commit.node
        ]
        for name in ("orderlesschain/P2/Verify", "orderlesschain/P2/Apply"):
            inner = [s for s in same_site if s.name == name]
            assert inner, f"missing {name} under P2/Commit"
            for span in inner:
                assert commit.contains(span)


def test_timestamps_monotone_and_nonnegative(traced):
    _, obs = traced
    collector = obs.trace
    for span in collector.spans:
        assert 0.0 <= span.start <= span.end
        assert span.duration >= 0.0
    for instant in collector.instants:
        assert instant.at >= 0.0
    submitted = {i.txn_id: i.at for i in collector.instants if i.name == "txn/submitted"}
    done = {
        i.txn_id: i.at
        for i in collector.instants
        if i.name in ("txn/committed", "txn/failed")
    }
    assert submitted and done
    for txn_id, at in done.items():
        assert txn_id in submitted
        assert at >= submitted[txn_id]


def test_net_hop_spans_carry_txn_ids(traced):
    _, obs = traced
    hops = obs.trace.spans_named("net/hop")
    assert hops
    assert any(hop.txn_id is not None for hop in hops)
    for hop in hops:
        assert hop.node  # recipient
        assert "type" in hop.attrs and "sender" in hop.attrs


def test_sampler_gauges_in_range(traced):
    _, obs = traced
    collector = obs.trace
    assert collector.nodes_sampled()
    utilization = [
        value
        for name in ("node/cpu/utilization", "node/lock/utilization")
        for _, value in collector.series(name)
    ]
    assert utilization
    assert all(0.0 <= value <= 1.0 for value in utilization)
    for name in ("node/cpu/queue", "net/in_flight", "net/sent", "net/delivered"):
        assert all(value >= 0 for _, value in collector.series(name))
    # Sample times follow the configured interval, monotonically.
    times = [at for at, _ in collector.series("net/in_flight")]
    assert times == sorted(times)


def test_untraced_observability_makes_no_span_calls():
    obs = Observability(trace=False)
    assert obs.recorder is None
    net, obs = run_traced(trace=False, bids=2)
    assert obs.trace.spans == [] and obs.trace.instants == []
    assert net.recorder.records  # the run itself still happened


def test_negative_sample_interval_is_rejected():
    with pytest.raises(ConfigError, match="sample_interval"):
        Observability(sample_interval=-0.5)


def test_sampled_untraced_run_keeps_its_samples():
    config = ExperimentConfig(num_orgs=4, quorum=2, duration=2, drain=1, scale=200)
    obs = Observability(trace=False, sample_interval=0.5)
    run_experiment(config, obs=obs)
    collector = obs.trace
    assert collector.series("net/sent") and collector.nodes_sampled()
    assert collector.spans == [] and collector.instants == []


def test_plugged_in_recorder_receives_everything():
    plug = TraceCollector()
    run_traced(bids=3, plug=plug)
    _, obs = run_traced(bids=3)
    assert plug.spans == obs.trace.spans
    assert plug.instants == obs.trace.instants


def test_trace_collector_satisfies_recorder_protocol():
    assert isinstance(TraceCollector(), Recorder)
