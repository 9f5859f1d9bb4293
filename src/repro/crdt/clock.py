"""Client-scoped Lamport clocks.

Each OrderlessChain client keeps a Lamport clock, incremented with
every submitted proposal, and each client's clock is independent of
every other client's (Section 6). The clock attached to an operation is
therefore a pair ``(client_id, counter)``: happened-before is inferable
only between operations of the *same* client (the lower counter came
first); operations of different clients are concurrent. This is the
only clock an operation carries; the MV-Register applies the rule
directly (see :mod:`repro.crdt.mvregister`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.crypto.hashing import Wire


@dataclass(frozen=True, order=True)
class OpClock:
    """A client-scoped Lamport timestamp ``(client_id, counter)``."""

    client_id: str
    counter: int

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


__all__ = ["OpClock", "LamportClock"]
