"""Declarative fault schedules.

A schedule is a list of timed fault events; the wire form is plain
JSON so schedules can live in files and be passed to the CLI
(``repro run chaos --faults schedule.json``):

.. code-block:: json

    {"events": [
        {"at": 1.0, "kind": "crash",     "node": "org1"},
        {"at": 3.0, "kind": "recover",   "node": "org1"},
        {"at": 4.0, "kind": "partition", "groups": [["org0"], ["org1", "org2", "org3"]]},
        {"at": 6.0, "kind": "heal"},
        {"at": 7.0, "kind": "loss_burst", "duration": 1.0,
         "loss_probability": 0.3, "duplicate_probability": 0.1},
        {"at": 8.0, "kind": "slow_node", "node": "org2", "duration": 2.0, "factor": 4.0}
    ]}

Schedules carry no randomness and no callable state, so they are
hashable into run fingerprints, picklable for process-pool sweeps, and
byte-reproducible by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError

KIND_CRASH = "crash"
KIND_RECOVER = "recover"
KIND_PARTITION = "partition"
KIND_HEAL = "heal"
KIND_LOSS_BURST = "loss_burst"
KIND_SLOW_NODE = "slow_node"

VALID_KINDS = frozenset(
    {KIND_CRASH, KIND_RECOVER, KIND_PARTITION, KIND_HEAL, KIND_LOSS_BURST, KIND_SLOW_NODE}
)

# Which kinds require which fields (beyond ``at`` and ``kind``).
_NEEDS_NODE = frozenset({KIND_CRASH, KIND_RECOVER, KIND_SLOW_NODE})
_NEEDS_DURATION = frozenset({KIND_LOSS_BURST, KIND_SLOW_NODE})


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault.

    Fields are a union over all kinds; validation enforces that each
    kind carries exactly what it needs:

    * ``crash`` / ``recover`` — ``node``.
    * ``partition`` — ``groups`` (tuple of tuples of node ids; nodes
      in no group stay unconstrained, see ``repro.net.network``).
    * ``heal`` — nothing.
    * ``loss_burst`` — ``duration`` plus ``loss_probability`` and/or
      ``duplicate_probability``; restores the previous link-fault
      model when the burst ends.
    * ``slow_node`` — ``node``, ``duration``, ``factor`` (CPU
      service-time multiplier, restored when the window ends).
    """

    at: float
    kind: str
    node: Optional[str] = None
    groups: Tuple[Tuple[str, ...], ...] = ()
    duration: Optional[float] = None
    loss_probability: float = 0.0
    duplicate_probability: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; valid: {sorted(VALID_KINDS)}"
            )
        if self.at < 0:
            raise ConfigError(f"fault time must be >= 0, got {self.at}")
        if self.kind in _NEEDS_NODE and not self.node:
            raise ConfigError(f"fault kind {self.kind!r} requires a node")
        if self.kind in _NEEDS_DURATION and (self.duration is None or self.duration <= 0):
            raise ConfigError(
                f"fault kind {self.kind!r} requires a positive duration"
            )
        if self.kind == KIND_PARTITION and not self.groups:
            raise ConfigError("partition requires at least one group")
        for name in ("loss_probability", "duplicate_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {value}")
        if self.kind == KIND_SLOW_NODE and self.factor <= 0:
            raise ConfigError(f"slow_node factor must be > 0, got {self.factor}")
        # Normalize groups to tuples so the event is hashable even when
        # constructed with lists.
        object.__setattr__(
            self, "groups", tuple(tuple(group) for group in self.groups)
        )

    @property
    def end(self) -> float:
        """When this event's effect is fully applied (or restored)."""
        if self.duration is not None:
            return self.at + self.duration
        return self.at

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {"at": self.at, "kind": self.kind}
        if self.node is not None:
            wire["node"] = self.node
        if self.groups:
            wire["groups"] = [list(group) for group in self.groups]
        if self.duration is not None:
            wire["duration"] = self.duration
        if self.loss_probability:
            wire["loss_probability"] = self.loss_probability
        if self.duplicate_probability:
            wire["duplicate_probability"] = self.duplicate_probability
        if self.factor != 1.0:
            wire["factor"] = self.factor
        return wire

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "FaultEvent":
        known = {
            "at",
            "kind",
            "node",
            "groups",
            "duration",
            "loss_probability",
            "duplicate_probability",
            "factor",
        }
        unknown = set(wire) - known
        if unknown:
            raise ConfigError(f"unknown fault event fields: {sorted(unknown)}")
        kwargs = dict(wire)
        if "groups" in kwargs:
            kwargs["groups"] = tuple(tuple(group) for group in kwargs["groups"])
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted sequence of fault events.

    Events are stably sorted by time at construction: two events at
    the same instant keep their authored order (so ``heal`` then
    ``partition`` at t=5 reshapes rather than cancels).
    """

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda event: event.at))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """Time after which no fault is active any more.

        Crash without a matching recover and partition without a heal
        extend the horizon to infinity conceptually; here they simply
        use their event time (the checkers separately account for
        still-crashed nodes via :meth:`crashed_at_end`).
        """
        return max((event.end for event in self.events), default=0.0)

    def crashed_at_end(self) -> frozenset:
        """Nodes crashed by the schedule and never recovered."""
        crashed: set = set()
        for event in self.events:
            if event.kind == KIND_CRASH:
                crashed.add(event.node)
            elif event.kind == KIND_RECOVER:
                crashed.discard(event.node)
        return frozenset(crashed)

    def partitioned_at_end(self) -> bool:
        """True when the last partition/heal event leaves a cut in place."""
        state = False
        for event in self.events:
            if event.kind == KIND_PARTITION:
                state = True
            elif event.kind == KIND_HEAL:
                state = False
        return state

    # -- wire / file forms ----------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        return {"events": [event.to_wire() for event in self.events]}

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "FaultSchedule":
        events = wire.get("events")
        if not isinstance(events, list):
            raise ConfigError("fault schedule wire form needs an 'events' list")
        return cls(events=tuple(FaultEvent.from_wire(entry) for entry in events))

    def to_json(self) -> str:
        return json.dumps(self.to_wire(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_wire(json.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def default_node_ids(system: str, num_orgs: int) -> List[str]:
    """The replica node ids a system of ``num_orgs`` organizations uses."""
    # Local imports: schedules sit below the systems whose nodes they name.
    from repro.baselines import BASELINES
    from repro.core.system import OrderlessChainNetwork

    networks = {OrderlessChainNetwork.system: OrderlessChainNetwork, **BASELINES}
    network = networks.get(system)
    if network is None:
        raise ConfigError(f"unknown system {system!r}; valid: {sorted(networks)}")
    return [f"{network.node_prefix}{index}" for index in range(num_orgs)]


def smoke_schedule(
    node_ids: Iterable[str],
    start: float = 1.0,
    crash_span: float = 2.0,
    partition_span: float = 2.0,
    loss_span: float = 1.0,
    loss_probability: float = 0.2,
) -> FaultSchedule:
    """The standard chaos-smoke schedule: crash + partition + loss burst.

    Crashes the second node for ``crash_span`` seconds, then splits the
    first node away from the rest for ``partition_span`` seconds, then
    runs a message-loss burst. Every fault is healed by
    ``start + crash_span + partition_span + loss_span + 2``, so a run
    that drains past that horizon should satisfy every oracle.
    """
    nodes: List[str] = list(node_ids)
    if len(nodes) < 2:
        raise ConfigError("smoke schedule needs at least two nodes")
    crash_target = nodes[1]
    events = [
        FaultEvent(at=start, kind=KIND_CRASH, node=crash_target),
        FaultEvent(at=start + crash_span, kind=KIND_RECOVER, node=crash_target),
        FaultEvent(
            at=start + crash_span + 1.0,
            kind=KIND_PARTITION,
            groups=(tuple(nodes[:1]), tuple(nodes[1:])),
        ),
        FaultEvent(at=start + crash_span + 1.0 + partition_span, kind=KIND_HEAL),
        FaultEvent(
            at=start + crash_span + partition_span + 2.0,
            kind=KIND_LOSS_BURST,
            duration=loss_span,
            loss_probability=loss_probability,
        ),
    ]
    return FaultSchedule(events=tuple(events))


# Simulated seconds a faulted run keeps offering load past its
# schedule's horizon, so recovery traffic drains before the oracles
# judge convergence and liveness.
RECOVERY_MARGIN = 5.0


def fault_run(config):
    """``config`` (an ``ExperimentConfig``) extended to run at least
    :data:`RECOVERY_MARGIN` seconds past its fault schedule's horizon;
    unchanged when the schedule is empty."""
    schedule = config.fault_schedule
    if not schedule:
        return config
    return config.with_(duration=max(config.duration, schedule.horizon + RECOVERY_MARGIN))


__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "RECOVERY_MARGIN",
    "default_node_ids",
    "fault_run",
    "smoke_schedule",
    "KIND_CRASH",
    "KIND_RECOVER",
    "KIND_PARTITION",
    "KIND_HEAL",
    "KIND_LOSS_BURST",
    "KIND_SLOW_NODE",
    "VALID_KINDS",
]
