"""Multi-value register (MV-Register).

"A shared variable capable of containing multiple values
simultaneously" (Section 5). Every assignment conflicts with every
other; conflicts are resolved with the happened-before relation between
operation clocks (Figure 4):

* if one assignment happened-before another, the later overwrites it;
* if no happened-before relation can be inferred, the register stores
  *all* concurrent values.

Assigning ``None`` deletes a value (Section 5: "The value must be null
for deleting a value"); ``read`` filters deletions out.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, NamedTuple, Set

from repro.crdt.base import CRDT
from repro.crdt.clock import OpClock
from repro.crypto.hashing import canonical_bytes


class _Pair(NamedTuple):
    value: Any
    clock: OpClock
    op_id: str

    def to_snapshot(self) -> Any:
        return {"value": self.value, "clock": self.clock.to_wire(), "op_id": self.op_id}


def _sort_key(value: Any) -> bytes:
    return canonical_bytes(value)


class MVRegister(CRDT):
    """An operation-based multi-value register.

    The live pairs are indexed by writer, so an assignment costs the
    same however many concurrent writers the register already holds:
    an :class:`OpClock` is ordered only against clocks of its own
    ``client_id`` (Section 6), which makes its insert one dict lookup
    and a counter comparison.
    """

    type_name = "mvregister"

    def __init__(self) -> None:
        # client_id -> that client's live pairs; all share one counter
        # (several ops of one write-set touching the same register).
        self._by_client: Dict[str, List[_Pair]] = {}
        self._seen: Set[str] = set()

    def assign(self, value: Any, clock: OpClock, op_id: str) -> None:
        """Table 1's ``AssignValue(value, clock)`` modification API."""
        self.apply(value, clock, op_id)

    def apply(self, value: Any, clock: OpClock, op_id: str) -> None:
        if op_id in self._seen:
            return
        self._seen.add(op_id)
        chain = self._by_client.get(clock.client_id)
        pair = _Pair(value, clock, op_id)
        if chain is None or chain[0].clock.counter < clock.counter:
            self._by_client[clock.client_id] = [pair]  # overwrites the older chain
        elif chain[0].clock.counter == clock.counter:
            # EQUAL clocks with distinct operation ids coexist like
            # concurrent values — any asymmetric rule would make the
            # outcome depend on arrival order.
            chain.append(pair)

    def _live(self) -> Iterator[_Pair]:
        for chain in self._by_client.values():
            yield from chain

    def read(self) -> List[Any]:
        """Current concurrent values, deletions excluded, sorted."""
        values = [pair.value for pair in self._live() if pair.value is not None]
        if len(values) > 1:
            values.sort(key=_sort_key)
        return values

    def read_single(self) -> Any:
        """Convenience: the single current value, or None/list otherwise."""
        values = self.read()
        if not values:
            return None
        if len(values) == 1:
            return values[0]
        return values

    def snapshot(self) -> Any:
        pairs = sorted((pair.to_snapshot() for pair in self._live()), key=_sort_key)
        return {"type": self.type_name, "pairs": pairs}

    def __repr__(self) -> str:
        return f"MVRegister(values={self.read()!r})"


__all__ = ["MVRegister"]
