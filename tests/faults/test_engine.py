"""Tests for the fault injector: deterministic, observable, reversible."""

import pytest

from repro.baselines import BASELINES
from repro.bench.config import ExperimentConfig
from repro.checkers import state_fingerprints
from repro.contracts import VotingContract
from repro.core import OrderlessChainNetwork
from repro.crypto.hashing import canonical_bytes
from repro.errors import ConfigError
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    install_schedule,
)
from repro.faults.engine import (
    INSTANT_INJECTED,
    SPAN_CRASH,
    SPAN_LOSS,
    SPAN_PARTITION,
    SPAN_SLOW,
)
from repro.obs import Observability


SYSTEMS = ("orderlesschain", *BASELINES)


def build(seed=1, num_orgs=4, quorum=2, **kwargs):
    config = ExperimentConfig(num_orgs=num_orgs, quorum=quorum, seed=seed, scale=1, **kwargs)
    net = OrderlessChainNetwork(config)
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    return net


def build_system(system):
    if system == "orderlesschain":
        return build()
    return BASELINES[system](
        ExperimentConfig(system=system, app="voting", num_orgs=4, quorum=2, scale=1)
    )


def test_crash_and_recover_toggle_node_state():
    net = build()
    schedule = FaultSchedule(
        events=(
            FaultEvent(at=1.0, kind="crash", node="org1"),
            FaultEvent(at=3.0, kind="recover", node="org1"),
        )
    )
    injector = install_schedule(net, schedule)
    org = net.node("org1")

    observations = []

    def observe_down():
        observations.append((net.network.is_down("org1"), org.crashed))

    net.sim.schedule_at(2.0, observe_down)
    net.run(until=5.0)
    assert observations == [(True, True)]
    assert not net.network.is_down("org1")
    assert not org.crashed
    assert injector.crashed_nodes == []
    assert [event.kind for event in injector.applied] == ["crash", "recover"]


def test_double_crash_and_double_recover_are_idempotent():
    net = build()
    schedule = FaultSchedule(
        events=(
            FaultEvent(at=1.0, kind="crash", node="org1"),
            FaultEvent(at=1.5, kind="crash", node="org1"),
            FaultEvent(at=2.0, kind="recover", node="org1"),
            FaultEvent(at=2.5, kind="recover", node="org1"),
        )
    )
    install_schedule(net, schedule)
    net.run(until=4.0)
    assert not net.network.is_down("org1")


def test_crash_without_recover_leaves_node_down():
    net = build()
    schedule = FaultSchedule(events=(FaultEvent(at=1.0, kind="crash", node="org2"),))
    injector = install_schedule(net, schedule)
    net.run(until=3.0)
    assert net.network.is_down("org2")
    assert injector.crashed_nodes == ["org2"]


def test_partition_and_heal_drive_network_partition():
    net = build()
    schedule = FaultSchedule(
        events=(
            FaultEvent(at=1.0, kind="partition", groups=(("org0",), ("org1", "org2", "org3"))),
            FaultEvent(at=2.0, kind="heal"),
        )
    )
    install_schedule(net, schedule)
    observations = []
    net.sim.schedule_at(1.5, lambda: observations.append(list(net.network._partitions)))
    net.run(until=3.0)
    assert observations and observations[0]  # cut was in place mid-window
    assert not net.network._partitions  # healed


def test_loss_burst_swaps_and_restores_link_faults():
    net = build()
    baseline = net.network.faults
    schedule = FaultSchedule(
        events=(
            FaultEvent(
                at=1.0,
                kind="loss_burst",
                duration=2.0,
                loss_probability=0.7,
                duplicate_probability=0.2,
            ),
        )
    )
    install_schedule(net, schedule)
    observations = []
    net.sim.schedule_at(2.0, lambda: observations.append(net.network.faults))
    net.run(until=5.0)
    assert observations[0].loss_probability == 0.7
    assert observations[0].duplicate_probability == 0.2
    assert net.network.faults == baseline


def test_slow_node_multiplies_and_restores_cpu_slowdown():
    net = build()
    cpu = net.node("org0").cpu
    schedule = FaultSchedule(
        events=(FaultEvent(at=1.0, kind="slow_node", node="org0", duration=2.0, factor=4.0),)
    )
    install_schedule(net, schedule)
    observations = []
    net.sim.schedule_at(2.0, lambda: observations.append(cpu.slowdown))
    net.run(until=5.0)
    assert observations == [4.0]
    assert cpu.slowdown == 1.0


def test_injection_emits_documented_trace_spans():
    net = build()
    obs = Observability(trace=True)
    net.attach_observability(obs)
    schedule = FaultSchedule(
        events=(
            FaultEvent(at=1.0, kind="crash", node="org1"),
            FaultEvent(at=2.0, kind="recover", node="org1"),
            FaultEvent(at=3.0, kind="partition", groups=(("org0",), ("org1", "org2", "org3"))),
            FaultEvent(at=4.0, kind="heal"),
            FaultEvent(at=5.0, kind="loss_burst", duration=1.0, loss_probability=0.5),
            FaultEvent(at=7.0, kind="slow_node", node="org0", duration=1.0, factor=2.0),
        )
    )
    injector = install_schedule(net, schedule)
    net.run(until=10.0)
    injector.finalize()
    spans = {span.name for span in obs.trace.spans}
    assert {SPAN_CRASH, SPAN_PARTITION, SPAN_LOSS, SPAN_SLOW} <= spans
    instants = [i for i in obs.trace.instants if i.name == INSTANT_INJECTED]
    assert len(instants) == len(schedule)
    # The schema documents every name the injector emits.
    from repro.obs.schema import validate_collector

    assert validate_collector(obs.trace) == []


def test_finalize_closes_open_windows():
    net = build()
    obs = Observability(trace=True)
    net.attach_observability(obs)
    schedule = FaultSchedule(
        events=(
            FaultEvent(at=1.0, kind="crash", node="org1"),
            FaultEvent(at=2.0, kind="partition", groups=(("org0",), ("org1", "org2", "org3"))),
        )
    )
    injector = install_schedule(net, schedule)
    net.run(until=5.0)
    assert not [s for s in obs.trace.spans if s.name in (SPAN_CRASH, SPAN_PARTITION)]
    injector.finalize()
    open_spans = [s for s in obs.trace.spans if s.name in (SPAN_CRASH, SPAN_PARTITION)]
    assert {s.name for s in open_spans} == {SPAN_CRASH, SPAN_PARTITION}
    assert all(s.end == 5.0 for s in open_spans)


@pytest.mark.parametrize("system", SYSTEMS)
def test_network_node_surface(system):
    net = build_system(system)
    assert net.system == system
    victim = net.node_ids[1]
    with pytest.raises(ConfigError) as raised:
        net.crash("node99")
    assert "'node99'" in str(raised.value)
    assert all(repr(node_id) in str(raised.value) for node_id in net.node_ids)

    net.crash(victim)
    assert net.network.is_down(victim)
    expected = "resync" if system == "orderlesschain" else "catchup"
    assert net.recover(victim) == expected
    assert not net.network.is_down(victim)

    # node(id).cpu is the resource the slow-node fault scales.
    schedule = FaultSchedule(
        events=(FaultEvent(at=1.0, kind="slow_node", node=victim, duration=2.0, factor=3.0),)
    )
    install_schedule(net, schedule)
    slowdowns = []
    net.sim.schedule_at(2.0, lambda: slowdowns.append(net.node(victim).cpu.slowdown))
    net.run(until=4.0)
    assert slowdowns == [3.0]

    # Identical state encodes to identical canonical bytes on every node.
    encoded = {canonical_bytes(net.node(node_id).state_snapshot()) for node_id in net.node_ids}
    assert len(encoded) == 1
    assert len(set(state_fingerprints(net).values())) == 1


@pytest.mark.parametrize(
    "system, grace",
    [("fabric", 260.0), ("fabriccrdt", 280.0), ("bidl", 250.0), ("synchotstuff", 250.0)],
)
def test_baseline_grace_covers_the_clients_longest_wait(system, grace):
    # Endorsement timeout (Fabric pair only) + the 240 s commit cap + 10 s.
    assert build_system(system).pending_grace() == grace


@pytest.mark.parametrize("retrying_first", [True, False])
def test_orderlesschain_grace_is_the_slowest_clients_wait(retrying_first):
    # Default client: one attempt of 3 s + 3 s, plus the 3 s read
    # timeout = 9 s; five retries stretch that to 6 * 6 + 3 = 39 s.
    net = build()
    configs = [net.config, net.config.with_(max_retries=5)]
    for config in configs[::-1] if retrying_first else configs:
        net.add_client(config=config)
    assert net.pending_grace() == 39.0


@pytest.mark.parametrize(
    "resilience, max_retries, grace",
    [
        # (retries + 1) endorse and commit waits plus one more wait: 3 s
        # fixed deadlines, or the 8.8 s jitter-inclusive adaptive bound.
        (False, 0, 9.0),
        (False, 2, 21.0),
        (True, 0, 26.400000000000002),
        (True, 2, 61.60000000000001),
    ],
)
def test_orderlesschain_grace_is_pinned(resilience, max_retries, grace):
    net = build(resilience=resilience, max_retries=max_retries)
    net.add_client()
    assert net.pending_grace() == grace


def recovery_attrs(net):
    """The ``recovery`` attr of the fault/crash span of one crash at
    t=3 and its recover at t=5."""
    obs = Observability(trace=True)
    net.attach_observability(obs)
    victim = net.node_ids[1]
    schedule = FaultSchedule(
        events=(
            FaultEvent(at=3.0, kind="crash", node=victim),
            FaultEvent(at=5.0, kind="recover", node=victim),
        )
    )
    install_schedule(net, schedule)
    net.run(until=6.0)
    return [span.attrs["recovery"] for span in obs.trace.spans_named(SPAN_CRASH)]


def test_crash_spans_name_the_recovery_that_ran():
    assert recovery_attrs(build()) == ["resync"]
    # A checkpoint taken before the crash makes recovery replay from it.
    assert recovery_attrs(build(snapshot_interval=1.0)) == ["snapshot"]
    assert recovery_attrs(build_system("bidl")) == ["catchup"]


def test_install_is_idempotent():
    net = build()
    schedule = FaultSchedule(events=(FaultEvent(at=1.0, kind="crash", node="org1"),))
    injector = install_schedule(net, schedule)
    assert injector.install() is injector  # second install schedules nothing
    net.run(until=2.0)
    assert len(injector.applied) == 1
