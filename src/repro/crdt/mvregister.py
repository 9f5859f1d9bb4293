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

from repro.crdt.base import CRDT, Ordering, compare_clocks
from repro.crdt.clock import OpClock
from repro.crypto.hashing import canonical_bytes
from repro.errors import CRDTError


class _Pair(NamedTuple):
    value: Any
    clock: Any
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
    and a counter comparison. Clocks of any other type are compared
    pairwise, but only among themselves — mixed types are concurrent.
    """

    type_name = "mvregister"

    def __init__(self) -> None:
        # client_id -> that client's live pairs; all share one counter
        # (several ops of one write-set touching the same register).
        self._by_client: Dict[str, List[_Pair]] = {}
        self._others: List[_Pair] = []  # live pairs whose clock is not an OpClock
        self._seen: Set[str] = set()

    def assign(self, value: Any, clock: Any, op_id: str) -> None:
        """Table 1's ``AssignValue(value, clock)`` modification API."""
        self.apply(value, clock, op_id)

    def apply(self, value: Any, clock: Any, op_id: str) -> None:
        if op_id in self._seen:
            return
        self._seen.add(op_id)
        self._insert(_Pair(value, clock, op_id))

    def _insert(self, pair: _Pair) -> None:
        clock = pair.clock
        if type(clock) is OpClock:
            chain = self._by_client.get(clock.client_id)
            if chain is None or chain[0].clock.counter < clock.counter:
                self._by_client[clock.client_id] = [pair]  # overwrites the older chain
            elif chain[0].clock.counter == clock.counter:
                # EQUAL clocks with distinct operation ids coexist like
                # concurrent values — any asymmetric rule would make
                # the outcome depend on arrival order.
                chain.append(pair)
            return
        survivors: List[_Pair] = []
        dominated = False
        for existing in self._others:
            ordering = compare_clocks(existing.clock, clock)
            if ordering is Ordering.BEFORE:
                continue  # the new assignment overwrites this one
            if ordering is Ordering.AFTER:
                dominated = True
            survivors.append(existing)
        if not dominated:
            survivors.append(pair)
        self._others = survivors

    def _live(self) -> Iterator[_Pair]:
        for chain in self._by_client.values():
            yield from chain
        yield from self._others

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

    def merge(self, other: CRDT) -> None:
        if not isinstance(other, MVRegister):
            raise CRDTError(f"cannot merge MV-Register with {other.type_name}")
        for pair in other._live():
            if pair.op_id not in self._seen:
                self._seen.add(pair.op_id)
                self._insert(pair)
        self._seen |= other._seen

    def snapshot(self) -> Any:
        pairs = sorted((pair.to_snapshot() for pair in self._live()), key=_sort_key)
        return {"type": self.type_name, "pairs": pairs}

    def copy(self) -> "MVRegister":
        clone = MVRegister()
        clone._by_client = {client: list(chain) for client, chain in self._by_client.items()}
        clone._others = list(self._others)
        clone._seen = set(self._seen)
        return clone

    def operation_count(self) -> int:
        return len(self._seen)

    def __repr__(self) -> str:
        return f"MVRegister(values={self.read()!r})"


__all__ = ["MVRegister"]
