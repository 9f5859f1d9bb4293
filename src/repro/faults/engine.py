"""The fault injector: executes a schedule against a running system.

Every fault event is applied through ``Simulator.schedule_at`` at its
declared time, so injection is part of the deterministic event order.
When a tracer (``repro.obs`` recorder) is attached, each application
emits a ``fault/injected`` instant, and window-shaped faults (crash →
recover, partition → heal, loss burst, slow node) emit a closing span
registered in ``repro.obs.schema``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.faults.adapters import SystemAdapter, adapter_for
from repro.faults.schedule import (
    KIND_CRASH,
    KIND_HEAL,
    KIND_LOSS_BURST,
    KIND_PARTITION,
    KIND_RECOVER,
    KIND_SLOW_NODE,
    FaultEvent,
    FaultSchedule,
)
from repro.net.latency import LinkFaults

# Window-shaped faults emit these spans when the window closes; the
# names are registered in repro.obs.schema.
SPAN_CRASH = "fault/crash"
SPAN_PARTITION = "fault/partition"
SPAN_LOSS = "fault/loss"
SPAN_SLOW = "fault/slow"
INSTANT_INJECTED = "fault/injected"


class FaultInjector:
    """Applies a :class:`FaultSchedule` to one system.

    Usage::

        injector = install_schedule(net, schedule, tracer=obs.recorder)
        net.run(until=duration)
        injector.finalize()  # close still-open trace windows

    The injector holds no randomness; all timing comes from the
    schedule and all stochastic fault *consequences* (which messages a
    loss burst eats) flow through the network's seeded RNG stream.
    """

    def __init__(
        self,
        adapter: SystemAdapter,
        schedule: FaultSchedule,
        tracer: Optional[Any] = None,
    ) -> None:
        self.adapter = adapter
        self.schedule = schedule
        self.tracer = tracer
        self.applied: List[FaultEvent] = []
        # Open fault windows, for span emission and finalize():
        self._crashed_since: Dict[str, float] = {}
        self._partition_since: Optional[float] = None
        self._installed = False

    # -- lifecycle ------------------------------------------------------

    def install(self) -> "FaultInjector":
        """Schedule every event; call before (or during) the run."""
        if self._installed:
            return self
        self._installed = True
        sim = self.adapter.sim
        for event in self.schedule:
            sim.schedule_at(event.at, self._apply, event)
        return self

    def finalize(self) -> None:
        """Close trace windows still open when the run ended."""
        now = self.adapter.sim.now
        if self.tracer is not None:
            for node_id, since in sorted(self._crashed_since.items()):
                self.tracer.span(SPAN_CRASH, since, now, node=node_id)
            if self._partition_since is not None:
                self.tracer.span(SPAN_PARTITION, self._partition_since, now, node="")
        self._crashed_since.clear()
        self._partition_since = None

    @property
    def crashed_nodes(self) -> List[str]:
        """Nodes currently crashed (applied crash without recover)."""
        return sorted(self._crashed_since)

    # -- event application ---------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        handler = {
            KIND_CRASH: self._apply_crash,
            KIND_RECOVER: self._apply_recover,
            KIND_PARTITION: self._apply_partition,
            KIND_HEAL: self._apply_heal,
            KIND_LOSS_BURST: self._apply_loss_burst,
            KIND_SLOW_NODE: self._apply_slow_node,
        }[event.kind]
        handler(event)
        self.applied.append(event)
        if self.tracer is not None:
            self.tracer.instant(
                INSTANT_INJECTED,
                self.adapter.sim.now,
                node=event.node or "",
                attrs={"kind": event.kind},
            )

    def _apply_crash(self, event: FaultEvent) -> None:
        if event.node in self._crashed_since:
            return  # already down; crashing twice is a no-op
        self.adapter.crash(event.node)
        self._crashed_since[event.node] = self.adapter.sim.now

    def _apply_recover(self, event: FaultEvent) -> None:
        since = self._crashed_since.pop(event.node, None)
        if since is None:
            return  # not down; recovering twice is a no-op
        self.adapter.recover(event.node)
        if self.tracer is not None:
            self.tracer.span(
                SPAN_CRASH,
                since,
                self.adapter.sim.now,
                node=event.node,
                attrs={"recovery": self.adapter.recovery_mode(event.node)},
            )

    def _apply_partition(self, event: FaultEvent) -> None:
        self.adapter.network.partition(*[set(group) for group in event.groups])
        if self._partition_since is None:
            self._partition_since = self.adapter.sim.now

    def _apply_heal(self, event: FaultEvent) -> None:
        self.adapter.network.heal_partition()
        if self._partition_since is not None and self.tracer is not None:
            self.tracer.span(
                SPAN_PARTITION, self._partition_since, self.adapter.sim.now, node=""
            )
        self._partition_since = None

    def _apply_loss_burst(self, event: FaultEvent) -> None:
        network = self.adapter.network
        previous = network.faults
        network.faults = LinkFaults(
            loss_probability=event.loss_probability,
            duplicate_probability=event.duplicate_probability,
            corrupt_probability=previous.corrupt_probability,
        )
        sim = self.adapter.sim
        sim.schedule(event.duration, self._restore_faults, (previous, sim.now))

    def _restore_faults(self, burst: Tuple[LinkFaults, float]) -> None:
        # Restore the pre-burst model (overlapping bursts restore
        # their own predecessor — last restore wins, documented).
        previous, started = burst
        self.adapter.network.faults = previous
        if self.tracer is not None:
            self.tracer.span(SPAN_LOSS, started, self.adapter.sim.now, node="")

    def _apply_slow_node(self, event: FaultEvent) -> None:
        cpu = self.adapter.cpu(event.node)
        previous = cpu.slowdown
        cpu.slowdown = previous * event.factor
        sim = self.adapter.sim
        sim.schedule(event.duration, self._restore_speed, (event, cpu, previous, sim.now))

    def _restore_speed(self, slowed: Tuple[FaultEvent, Any, float, float]) -> None:
        event, cpu, previous, started = slowed
        cpu.slowdown = previous
        if self.tracer is not None:
            self.tracer.span(
                SPAN_SLOW,
                started,
                self.adapter.sim.now,
                node=event.node,
                attrs={"factor": event.factor},
            )


def install_schedule(
    net: Any, schedule: FaultSchedule, tracer: Optional[Any] = None
) -> FaultInjector:
    """Adapt ``net``, build an injector for ``schedule``, install it."""
    injector = FaultInjector(adapter_for(net), schedule, tracer=tracer)
    return injector.install()


__all__ = [
    "FaultInjector",
    "install_schedule",
    "SPAN_CRASH",
    "SPAN_PARTITION",
    "SPAN_LOSS",
    "SPAN_SLOW",
    "INSTANT_INJECTED",
]
