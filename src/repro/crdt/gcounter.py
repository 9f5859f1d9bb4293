"""Grow-only counter (G-Counter).

"A monotonically increasing numeric variable" (Section 5). Increments
are intrinsically commutative, so conflict resolution is trivial; the
only metadata needed is the set of applied operation identifiers, which
makes the counter idempotent under redelivery.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from repro.crdt.base import CRDT
from repro.errors import CRDTError


class GCounter(CRDT):
    """An operation-based grow-only counter."""

    type_name = "gcounter"

    def __init__(self) -> None:
        # op_id -> increment amount; the value is their sum. While every
        # increment is a whole number and the sum stays below 2**53, a
        # running total is exact, so it reads the same in any apply order
        # and a read does not grow with the number of increments. Past
        # that, ``read`` sums them correctly rounded (``math.fsum``),
        # which is order-independent too.
        self._increments: Dict[str, float] = {}
        self._total: float = 0
        self._exact = True

    def add(self, value: float, clock: Any, op_id: str) -> None:
        """Table 1's ``AddValue(value, clock)`` modification API."""
        self.apply(value, clock, op_id)

    def apply(self, value: Any, clock: Any, op_id: str) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise CRDTError(f"G-Counter increment must be numeric, got {value!r}")
        if value < 0:
            raise CRDTError(f"G-Counter is grow-only; increment {value} rejected")
        # Idempotence: redelivered operations are ignored.
        if op_id not in self._increments:
            self._increments[op_id] = value
            self._total += value
            if self._exact and not (float(value).is_integer() and self._total < 2**53):
                self._exact = False

    def read(self) -> float:
        total = self._total if self._exact else math.fsum(self._increments.values())
        return int(total) if float(total).is_integer() else total

    def snapshot(self) -> Any:
        return {"type": self.type_name, "increments": dict(sorted(self._increments.items()))}

    def __repr__(self) -> str:
        return f"GCounter(value={self.read()}, ops={len(self._increments)})"


__all__ = ["GCounter"]
