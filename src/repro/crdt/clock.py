"""Logical clocks and the happened-before relation.

Each OrderlessChain client keeps a Lamport clock, incremented with
every submitted proposal, and each client's clock is independent of
every other client's (Section 6). The clock attached to an operation is
therefore a pair ``(client_id, counter)``: happened-before is inferable
only between operations of the *same* client; operations of different
clients are concurrent.

A :class:`VectorClock` is also provided for applications that track
causality across clients (the CRDT literature's general mechanism); the
CRDTs accept any clock implementing ``compare``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.crypto.hashing import Wire


class Ordering(enum.Enum):
    """Result of comparing two logical clocks."""

    BEFORE = "before"
    AFTER = "after"
    EQUAL = "equal"
    CONCURRENT = "concurrent"


@dataclass(frozen=True, order=True)
class OpClock:
    """A client-scoped Lamport timestamp ``(client_id, counter)``."""

    client_id: str
    counter: int

    def compare(self, other: "OpClock") -> Ordering:
        if not isinstance(other, OpClock):
            raise TypeError(f"cannot compare OpClock with {type(other).__name__}")
        if self.client_id != other.client_id:
            return Ordering.CONCURRENT
        if self.counter < other.counter:
            return Ordering.BEFORE
        if self.counter > other.counter:
            return Ordering.AFTER
        return Ordering.EQUAL

    def happened_before(self, other: "OpClock") -> bool:
        return self.compare(other) is Ordering.BEFORE

    def to_wire(self) -> Dict[str, Any]:
        # Memoized like Operation.to_wire: every operation a proposal's
        # endorsers emit carries this one clock, so its fragment is
        # rendered once, not once per operation per endorser.
        wire = self.__dict__.get("_wire_cache")
        if wire is None:
            wire = Wire({"client_id": self.client_id, "counter": self.counter})
            object.__setattr__(self, "_wire_cache", wire)
        return wire

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "OpClock":
        client_id = wire["client_id"]
        if not isinstance(client_id, str):
            raise TypeError(f"clock client_id must be a str, not {type(client_id).__name__}")
        return cls(client_id=client_id, counter=int(wire["counter"]))


class LamportClock:
    """A client's local Lamport clock (Section 6).

    The clock is incremented with every submitted proposal; ``tick``
    returns the :class:`OpClock` to stamp onto that proposal's
    operations.
    """

    def __init__(self, client_id: str, start: int = 0) -> None:
        self.client_id = client_id
        self._counter = start

    @property
    def counter(self) -> int:
        return self._counter

    def tick(self) -> OpClock:
        """Advance the clock and return the new timestamp."""
        self._counter += 1
        return OpClock(self.client_id, self._counter)

    def peek(self) -> OpClock:
        """Current timestamp without advancing."""
        return OpClock(self.client_id, self._counter)

    def observe(self, other: OpClock) -> None:
        """Merge in a timestamp seen from elsewhere (Lamport receive rule)."""
        if other.counter > self._counter:
            self._counter = other.counter


@dataclass(frozen=True)
class VectorClock:
    """A vector clock over node identifiers.

    ``entries`` maps node id to counter; absent entries are zero.
    """

    entries: tuple[tuple[str, int], ...] = ()

    @classmethod
    def of(cls, mapping: Mapping[str, int]) -> "VectorClock":
        return cls(tuple(sorted((k, int(v)) for k, v in mapping.items() if v)))

    def as_dict(self) -> Dict[str, int]:
        return dict(self.entries)

    def get(self, node: str) -> int:
        return dict(self.entries).get(node, 0)

    def increment(self, node: str) -> "VectorClock":
        mapping = self.as_dict()
        mapping[node] = mapping.get(node, 0) + 1
        return VectorClock.of(mapping)

    def merge(self, other: "VectorClock") -> "VectorClock":
        mapping = self.as_dict()
        for node, counter in other.entries:
            mapping[node] = max(mapping.get(node, 0), counter)
        return VectorClock.of(mapping)

    def compare(self, other: "VectorClock") -> Ordering:
        if not isinstance(other, VectorClock):
            raise TypeError(f"cannot compare VectorClock with {type(other).__name__}")
        mine, theirs = self.as_dict(), other.as_dict()
        less = any(mine.get(k, 0) < v for k, v in theirs.items())
        greater = any(v > theirs.get(k, 0) for k, v in mine.items())
        if less and greater:
            return Ordering.CONCURRENT
        if less:
            return Ordering.BEFORE
        if greater:
            return Ordering.AFTER
        return Ordering.EQUAL

    def happened_before(self, other: "VectorClock") -> bool:
        return self.compare(other) is Ordering.BEFORE

    def to_wire(self) -> Dict[str, Any]:
        return {"vector": self.as_dict()}

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "VectorClock":
        return cls.of(wire["vector"])


def clock_from_wire(wire: Mapping[str, Any]) -> Any:
    """Reconstruct a clock serialized by ``to_wire``."""
    if "vector" in wire:
        return VectorClock.from_wire(wire)
    return OpClock.from_wire(wire)


__all__ = ["Ordering", "OpClock", "LamportClock", "VectorClock", "clock_from_wire"]
