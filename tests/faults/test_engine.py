"""Tests for the fault injector: deterministic, observable, reversible."""

import pytest

from repro.contracts import VotingContract
from repro.core import OrderlessChainNetwork, OrderlessChainSettings
from repro.errors import ConfigError
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    adapter_for,
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


def build(seed=1, num_orgs=4, quorum=2):
    settings = OrderlessChainSettings(num_orgs=num_orgs, quorum=quorum, seed=seed)
    net = OrderlessChainNetwork(settings)
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    return net


def test_crash_and_recover_toggle_node_state():
    net = build()
    schedule = FaultSchedule(
        events=(
            FaultEvent(at=1.0, kind="crash", node="org1"),
            FaultEvent(at=3.0, kind="recover", node="org1"),
        )
    )
    injector = install_schedule(net, schedule)
    org = net.org("org1")

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
    cpu = net.org("org0").cpu
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
    injector = net.install_fault_schedule(schedule)
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
    injector = net.install_fault_schedule(schedule)
    net.run(until=5.0)
    assert not [s for s in obs.trace.spans if s.name in (SPAN_CRASH, SPAN_PARTITION)]
    injector.finalize()
    open_spans = [s for s in obs.trace.spans if s.name in (SPAN_CRASH, SPAN_PARTITION)]
    assert {s.name for s in open_spans} == {SPAN_CRASH, SPAN_PARTITION}
    assert all(s.end == 5.0 for s in open_spans)


def test_adapter_rejects_unknown_node_and_network():
    net = build()
    adapter = adapter_for(net)
    with pytest.raises(ConfigError):
        adapter.crash("org99")
    with pytest.raises(ConfigError):
        adapter_for(object())


@pytest.mark.parametrize(
    "system, grace",
    [("fabric", 260.0), ("fabriccrdt", 280.0), ("bidl", 250.0), ("synchotstuff", 250.0)],
)
def test_baseline_grace_covers_the_clients_longest_wait(system, grace):
    # Endorsement timeout (Fabric pair only) + the 240 s commit cap + 10 s.
    from repro.baselines import BASELINES, BaselineSettings

    net = BASELINES[system](BaselineSettings(num_orgs=4, quorum=2))
    assert adapter_for(net).pending_grace() == grace


def test_install_is_idempotent():
    net = build()
    schedule = FaultSchedule(events=(FaultEvent(at=1.0, kind="crash", node="org1"),))
    injector = install_schedule(net, schedule)
    assert injector.install() is injector  # second install schedules nothing
    net.run(until=2.0)
    assert len(injector.applied) == 1
