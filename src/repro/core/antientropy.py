"""Watermark-based anti-entropy digests (docs/PERFORMANCE.md).

Anti-entropy once shipped the *entire* committed
transaction-id set every sync round — O(n log n) Python work and O(n)
modeled bytes per round, so long runs spent more time summarizing
history than committing transactions. Transaction ids are
``client_id:counter`` pairs (the proposal's Lamport clock), so the
committed set compresses losslessly into a per-client **high
watermark** plus a run-length-encoded **gap set** — a version-vector
digest in the CRDT tradition the paper builds on.

:class:`WatermarkDigest` is the pure, wire-able summary. Per client it
stores the highest committed counter (``high``) and the sorted,
disjoint ranges of *uncommitted* counters below it (``gaps`` — the
out-of-order exception set: Lamport counters consumed by reads, failed
proposals, or commits that arrived out of order via gossip). Ids whose
counter does not parse go into a small ``extras`` set so correctness
never depends on the id format. Wire size is O(clients + gap ranges),
independent of committed history. Each organization keeps one, with
one :meth:`WatermarkDigest.add` per valid commit, beside the ledger
that records the committed set itself.

Set reconciliation between two digests (:func:`WatermarkDigest.
difference`) runs in O(clients + gaps + divergence) by interval
arithmetic on the covered ranges — it never enumerates counters both
sides already share.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple


def parse_txn_id(txn_id: str) -> Tuple[str, Optional[int]]:
    """Split ``client_id:counter``; counter is None if unparseable."""
    client, sep, counter = txn_id.rpartition(":")
    if sep and counter.isdigit():
        return client, int(counter)
    return txn_id, None


class _Mark:
    """One client's coverage: ``{1..high}`` minus ``gaps``."""

    __slots__ = ("high", "gaps")

    def __init__(self, high: int = 0, gaps: Optional[List[Tuple[int, int]]] = None) -> None:
        self.high = high
        # Sorted, disjoint, inclusive [lo, hi] ranges of uncommitted
        # counters strictly below ``high``.
        self.gaps: List[Tuple[int, int]] = gaps if gaps is not None else []

    def covered_intervals(self) -> List[Tuple[int, int]]:
        """Sorted disjoint inclusive intervals of committed counters."""
        out: List[Tuple[int, int]] = []
        start = 1
        for lo, hi in self.gaps:
            if lo > start:
                out.append((start, lo - 1))
            start = hi + 1
        if start <= self.high:
            out.append((start, self.high))
        return out


def _subtract_intervals(
    covered: List[Tuple[int, int]], minus: List[Tuple[int, int]]
) -> Iterator[Tuple[int, int]]:
    """Intervals in ``covered`` not overlapped by ``minus`` (both sorted)."""
    index = 0
    for lo, hi in covered:
        start = lo
        while index < len(minus) and minus[index][1] < start:
            index += 1
        scan = index
        while scan < len(minus) and minus[scan][0] <= hi:
            cut_lo, cut_hi = minus[scan]
            if cut_lo > start:
                yield (start, cut_lo - 1)
            start = max(start, cut_hi + 1)
            if start > hi:
                break
            scan += 1
        if start <= hi:
            yield (start, hi)


class WatermarkDigest:
    """Per-client watermark + gap-range summary of a txn-id set."""

    __slots__ = ("_marks", "extras", "count")

    def __init__(self) -> None:
        self._marks: Dict[str, _Mark] = {}
        # Ids that do not parse as client:int — kept verbatim so the
        # digest is lossless for any id shape.
        self.extras: Set[str] = set()
        self.count = 0

    # -- building ----------------------------------------------------------

    def add(self, txn_id: str) -> bool:
        """Record one committed id; returns False on a duplicate."""
        client, counter = parse_txn_id(txn_id)
        if counter is None:
            if txn_id in self.extras:
                return False
            self.extras.add(txn_id)
            self.count += 1
            return True
        mark = self._marks.get(client)
        if mark is None:
            mark = self._marks[client] = _Mark()
        if counter > mark.high:
            if counter > mark.high + 1:
                mark.gaps.append((mark.high + 1, counter - 1))
            mark.high = counter
            self.count += 1
            return True
        # Out-of-order arrival below the watermark: fill (part of) a gap.
        gaps = mark.gaps
        index = bisect_right(gaps, counter, key=lambda gap: gap[0]) - 1
        if index < 0 or gaps[index][1] < counter:
            return False  # already covered: duplicate
        lo, hi = gaps[index]
        replacement = []
        if lo < counter:
            replacement.append((lo, counter - 1))
        if counter < hi:
            replacement.append((counter + 1, hi))
        gaps[index : index + 1] = replacement
        self.count += 1
        return True

    # -- queries -----------------------------------------------------------

    def covers(self, txn_id: str) -> bool:
        client, counter = parse_txn_id(txn_id)
        if counter is None:
            return txn_id in self.extras
        mark = self._marks.get(client)
        if mark is None or counter > mark.high:
            return False
        gaps = mark.gaps
        index = bisect_right(gaps, counter, key=lambda gap: gap[0]) - 1
        return index < 0 or gaps[index][1] < counter

    def __contains__(self, txn_id: str) -> bool:
        return self.covers(txn_id)

    def __len__(self) -> int:
        return self.count

    @property
    def client_count(self) -> int:
        return len(self._marks)

    @property
    def gap_count(self) -> int:
        """Total gap ranges plus extras — the digest's variable cost."""
        return sum(len(mark.gaps) for mark in self._marks.values()) + len(self.extras)

    def ids(self) -> Iterator[str]:
        """Every covered id, canonically ordered (client, counter)."""
        for client in sorted(self._marks):
            for lo, hi in self._marks[client].covered_intervals():
                for counter in range(lo, hi + 1):
                    yield f"{client}:{counter}"
        yield from sorted(self.extras)

    def difference(self, other: "WatermarkDigest") -> Iterator[str]:
        """Ids covered by ``self`` but not by ``other``.

        Interval subtraction per client: O(clients + gap ranges +
        emitted ids); ranges both sides share are skipped wholesale.
        """
        for client in sorted(self._marks):
            mine = self._marks[client].covered_intervals()
            theirs_mark = other._marks.get(client)
            theirs = theirs_mark.covered_intervals() if theirs_mark is not None else []
            for lo, hi in _subtract_intervals(mine, theirs):
                for counter in range(lo, hi + 1):
                    yield f"{client}:{counter}"
        for txn_id in sorted(self.extras - other.extras):
            yield txn_id

    # -- wire form ---------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        return {
            "clients": {
                client: [mark.high, [list(gap) for gap in mark.gaps]]
                for client, mark in sorted(self._marks.items())
            },
            "extras": sorted(self.extras),
        }

    @classmethod
    def from_wire(cls, body: Dict[str, Any]) -> "WatermarkDigest":
        """The digest a peer sent; ValueError if the body is malformed.

        A ``clients`` entry must be ``[int, [[int, int], ...]]`` (bools
        are not ints here) and ``extras`` a list of str.
        """
        clients, extras = body.get("clients", {}), body.get("extras", [])
        if not isinstance(clients, dict) or not isinstance(extras, list):
            raise ValueError("watermark digest: clients must be a mapping, extras a list")
        digest = cls()
        for client, entry in clients.items():
            if not (isinstance(client, str) and _is_mark_wire(entry)):
                raise ValueError(f"watermark digest: malformed entry for {client!r}")
            high, gaps = entry
            mark = _Mark(high=high, gaps=[tuple(gap) for gap in gaps])
            digest._marks[client] = mark
            digest.count += high - sum(hi - lo + 1 for lo, hi in mark.gaps)
        for txn_id in extras:
            if not isinstance(txn_id, str):
                raise ValueError("watermark digest: extras must be str ids")
            digest.extras.add(txn_id)
            digest.count += 1
        return digest


def _is_mark_wire(entry: Any) -> bool:
    """``[high, [[lo, hi], ...]]`` with plain ints throughout."""
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and type(entry[0]) is int
        and isinstance(entry[1], list)
        and all(
            isinstance(gap, list) and len(gap) == 2 and type(gap[0]) is int and type(gap[1]) is int
            for gap in entry[1]
        )
    )


__all__ = ["WatermarkDigest", "parse_txn_id"]
