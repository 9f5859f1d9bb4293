"""Reference MV-Register for the differential tests — not product code.

This is the register ``repro.crdt.mvregister`` shipped before it was
indexed by writer: one flat list of live pairs, every insert compared
against every pair for happened-before (Figure 4, literally). It is
O(live pairs) per assignment, which is why it was replaced; it stays
here as the oracle ``test_mvregister_differential.py`` holds the
indexed register to, and as the baseline the history-independence test
shows to be quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Set

from repro.crdt.base import CRDT
from repro.crdt.clock import OpClock
from repro.crypto.hashing import canonical_bytes


def happened_before(left: OpClock, right: OpClock) -> bool:
    """Client-scoped happened-before (Section 6): only a client's own
    clocks are ordered, by counter; other clients' are concurrent."""
    return left.client_id == right.client_id and left.counter < right.counter


@dataclass
class _Pair:
    value: Any
    clock: OpClock
    op_id: str

    def to_snapshot(self) -> Any:
        return {"value": self.value, "clock": self.clock.to_wire(), "op_id": self.op_id}


def _sort_key(value: Any) -> bytes:
    return canonical_bytes(value)


class LinearScanRegister(CRDT):
    """The linear-scan MV-Register: every insert compares against every live pair."""

    type_name = "mvregister"

    def __init__(self) -> None:
        self._pairs: List[_Pair] = []
        self._seen: Set[str] = set()

    def assign(self, value: Any, clock: OpClock, op_id: str) -> None:
        """Table 1's ``AssignValue(value, clock)`` modification API."""
        self.apply(value, clock, op_id)

    def apply(self, value: Any, clock: OpClock, op_id: str) -> None:
        if op_id in self._seen:
            return
        self._seen.add(op_id)
        survivors: List[_Pair] = []
        dominated = False
        for existing in self._pairs:
            if happened_before(existing.clock, clock):
                continue  # the new assignment overwrites this one
            if happened_before(clock, existing.clock):
                dominated = True
            # EQUAL clocks with distinct operation ids (several ops of
            # one write-set touching the same register) coexist like
            # concurrent values — any asymmetric rule would make the
            # outcome depend on arrival order.
            survivors.append(existing)
        if not dominated:
            survivors.append(_Pair(value, clock, op_id))
        self._pairs = survivors

    def read(self) -> List[Any]:
        """Current concurrent values, deletions excluded, sorted."""
        values = [pair.value for pair in self._pairs if pair.value is not None]
        return sorted(values, key=_sort_key)

    def read_single(self) -> Any:
        """Convenience: the single current value, or None/list otherwise."""
        values = self.read()
        if not values:
            return None
        if len(values) == 1:
            return values[0]
        return values

    def snapshot(self) -> Any:
        pairs = sorted((pair.to_snapshot() for pair in self._pairs), key=_sort_key)
        return {"type": self.type_name, "pairs": pairs}

    def __repr__(self) -> str:
        return f"LinearScanRegister(values={self.read()!r})"


__all__ = ["LinearScanRegister", "happened_before"]
