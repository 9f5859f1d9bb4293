"""The fault injector: executes a schedule against a running system.

Every fault event is applied through ``Simulator.schedule_at`` at its
declared time, so injection is part of the deterministic event order.
When the run is traced (its recorder's ``trace`` is set), each
application emits a ``fault/injected`` instant, and window-shaped
faults (crash → recover, partition → heal, loss burst, slow node) emit
a closing span registered in ``repro.obs.schema``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

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
    """Applies a :class:`FaultSchedule` to one built network.

    The network's node surface (``crash``/``recover``/``node``, shared
    by ``OrderlessChainNetwork`` and every baseline network) does the
    work; the injector only times it and traces the windows.

    Usage::

        injector = install_schedule(net, schedule)
        net.run(until=duration)
        injector.finalize()  # close still-open trace windows

    The injector holds no randomness; all timing comes from the
    schedule and all stochastic fault *consequences* (which messages a
    loss burst eats) flow through the network's seeded RNG stream.
    """

    def __init__(self, net: Any, schedule: FaultSchedule) -> None:
        self.net = net
        self.schedule = schedule
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
        sim = self.net.sim
        for event in self.schedule:
            sim.schedule_at(event.at, self._apply, event)
        return self

    def finalize(self) -> None:
        """Close trace windows still open when the run ended."""
        now = self.net.sim.now
        trace = self._trace
        if trace is not None:
            for node_id, since in sorted(self._crashed_since.items()):
                trace.span(SPAN_CRASH, since, now, node=node_id)
            if self._partition_since is not None:
                trace.span(SPAN_PARTITION, self._partition_since, now, node="")
        self._crashed_since.clear()
        self._partition_since = None

    @property
    def _trace(self):
        """The run's trace (its recorder's ``trace``), or None."""
        return self.net.recorder.trace

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
        trace = self._trace
        if trace is not None:
            trace.instant(
                INSTANT_INJECTED,
                self.net.sim.now,
                node=event.node or "",
                attrs={"kind": event.kind},
            )

    def _apply_crash(self, event: FaultEvent) -> None:
        if event.node in self._crashed_since:
            return  # already down; crashing twice is a no-op
        self.net.crash(event.node)
        self._crashed_since[event.node] = self.net.sim.now

    def _apply_recover(self, event: FaultEvent) -> None:
        since = self._crashed_since.pop(event.node, None)
        if since is None:
            return  # not down; recovering twice is a no-op
        mode = self.net.recover(event.node)
        trace = self._trace
        if trace is not None:
            trace.span(
                SPAN_CRASH, since, self.net.sim.now, node=event.node, attrs={"recovery": mode}
            )

    def _apply_partition(self, event: FaultEvent) -> None:
        self.net.network.partition(*[set(group) for group in event.groups])
        if self._partition_since is None:
            self._partition_since = self.net.sim.now

    def _apply_heal(self, event: FaultEvent) -> None:
        self.net.network.heal_partition()
        trace = self._trace
        if self._partition_since is not None and trace is not None:
            trace.span(
                SPAN_PARTITION, self._partition_since, self.net.sim.now, node=""
            )
        self._partition_since = None

    def _apply_loss_burst(self, event: FaultEvent) -> None:
        network = self.net.network
        previous = network.faults
        network.faults = LinkFaults(
            loss_probability=event.loss_probability,
            duplicate_probability=event.duplicate_probability,
            corrupt_probability=previous.corrupt_probability,
        )
        sim = self.net.sim
        sim.schedule(event.duration, self._restore_faults, (previous, sim.now))

    def _restore_faults(self, burst: Tuple[LinkFaults, float]) -> None:
        # Restore the pre-burst model (overlapping bursts restore
        # their own predecessor — last restore wins, documented).
        previous, started = burst
        self.net.network.faults = previous
        trace = self._trace
        if trace is not None:
            trace.span(SPAN_LOSS, started, self.net.sim.now, node="")

    def _apply_slow_node(self, event: FaultEvent) -> None:
        cpu = self.net.node(event.node).cpu
        previous = cpu.slowdown
        cpu.slowdown = previous * event.factor
        sim = self.net.sim
        sim.schedule(event.duration, self._restore_speed, (event, cpu, previous, sim.now))

    def _restore_speed(self, slowed: Tuple[FaultEvent, Any, float, float]) -> None:
        event, cpu, previous, started = slowed
        cpu.slowdown = previous
        trace = self._trace
        if trace is not None:
            trace.span(
                SPAN_SLOW,
                started,
                self.net.sim.now,
                node=event.node,
                attrs={"factor": event.factor},
            )


def install_schedule(net: Any, schedule: FaultSchedule) -> FaultInjector:
    """Build an injector for ``schedule`` on ``net`` and install it."""
    return FaultInjector(net, schedule).install()


__all__ = [
    "FaultInjector",
    "install_schedule",
    "SPAN_CRASH",
    "SPAN_PARTITION",
    "SPAN_LOSS",
    "SPAN_SLOW",
    "INSTANT_INJECTED",
]
