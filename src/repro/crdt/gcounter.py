"""Grow-only counter (G-Counter).

"A monotonically increasing numeric variable" (Section 5). Increments
are intrinsically commutative, so conflict resolution is trivial; the
only metadata needed is the set of applied operation identifiers, which
makes the counter idempotent under redelivery.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.crdt.base import CRDT
from repro.errors import CRDTError


class GCounter(CRDT):
    """An operation-based grow-only counter."""

    type_name = "gcounter"

    def __init__(self) -> None:
        # op_id -> increment amount; the value is their sum, kept as a
        # running total (added in insertion order) so a read does not
        # grow with the number of increments.
        self._increments: Dict[str, float] = {}
        self._total: float = 0

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

    def read(self) -> float:
        total = self._total
        return int(total) if float(total).is_integer() else total

    def snapshot(self) -> Any:
        return {"type": self.type_name, "increments": dict(sorted(self._increments.items()))}

    def __repr__(self) -> str:
        return f"GCounter(value={self.read()}, ops={len(self._increments)})"


__all__ = ["GCounter"]
