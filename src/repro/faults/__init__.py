"""Deterministic fault injection for the simulator.

A :class:`~repro.faults.schedule.FaultSchedule` is a declarative list
of timed :class:`~repro.faults.schedule.FaultEvent` entries — org
crashes and recoveries, network partitions and heals, message-loss and
duplication bursts, slow-node CPU degradation. The
:class:`~repro.faults.engine.FaultInjector` executes a schedule against
any of the five simulated systems through the node surface every built
network exposes: ``node_ids``, ``node(id)`` (each node has a ``cpu``
and a ``state_snapshot()``), ``crash`` and ``recover``.

Injection is fully deterministic: the schedule itself contains no
randomness, events are applied at fixed simulated times through
``Simulator.schedule_at``, and any stochastic consequences (which
messages a loss burst eats) flow through the network's existing seeded
RNG stream. Same seed + same schedule = byte-identical run.
:func:`~repro.faults.schedule.fault_run` extends a faulted config to
run ``RECOVERY_MARGIN`` seconds past its schedule's horizon.

See ``docs/FAULTS.md`` for the JSON schema and the checker model.
"""

from repro.faults.engine import FaultInjector, install_schedule
from repro.faults.schedule import (
    RECOVERY_MARGIN,
    FaultEvent,
    FaultSchedule,
    default_node_ids,
    fault_run,
    smoke_schedule,
)

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "RECOVERY_MARGIN",
    "default_node_ids",
    "fault_run",
    "install_schedule",
    "smoke_schedule",
]
