"""CRDT modification operations.

Per Section 6, each operation carries four components besides the id of
the CRDT object it targets:

1. *operation identifier* — unique per CRDT object; the combination of
   the client's identifier and the client's Lamport clock;
2. *modification value and type* — the value written and the CRDT type
   of the modified location;
3. *client's clock* — the Lamport timestamp used for happened-before;
4. *operation path* — where in a nested CRDT structure the
   modification applies, starting from the object's root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Mapping, Tuple

from repro.crdt.clock import OpClock
from repro.crypto.hashing import (
    Wire,
    canonical_fragment,
    count_rendered,
    decode_once,
)
from repro.errors import CRDTError

TYPE_GCOUNTER = "gcounter"
TYPE_MVREGISTER = "mvregister"
TYPE_MAP = "map"

VALUE_TYPES = frozenset({TYPE_GCOUNTER, TYPE_MVREGISTER, TYPE_MAP})


@dataclass(frozen=True)
class Operation:
    """A single I-confluent modification of a CRDT object."""

    object_id: str
    path: Tuple[str, ...]
    value: Any
    value_type: str
    clock: OpClock
    # Position within the proposal's write-set: a transaction may carry
    # several operations for the same object under one client clock
    # (e.g. the synthetic application's OpsPerObjCount), and the index
    # keeps their identifiers distinct.
    op_index: int = 0

    def __post_init__(self) -> None:
        if self.value_type not in VALUE_TYPES:
            raise CRDTError(
                f"unknown CRDT type {self.value_type!r}; expected one of {sorted(VALUE_TYPES)}"
            )
        if not isinstance(self.path, tuple):
            object.__setattr__(self, "path", tuple(self.path))
        if self.value_type == TYPE_GCOUNTER:
            if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
                raise CRDTError(f"G-Counter operations need a numeric value, got {self.value!r}")
            if self.value < 0:
                raise CRDTError(f"G-Counter is grow-only; negative value {self.value!r} rejected")
        elif self.value_type == TYPE_MAP and not isinstance(self.value, str):
            raise CRDTError(f"map operations carry the key to create, got {self.value!r}")

    @cached_property
    def op_id(self) -> str:
        """Unique id per CRDT object: client id + clock + write-set index.

        Built once per operation object, which decode-once shares
        network-wide: every organization's CRDT bookkeeping (G-Counter
        increments, MV-Register pairs and seen set) keys on this one
        string, not on a copy of its own.
        """
        return f"{self.clock.client_id}#{self.clock.counter}#{self.op_index}"

    def to_wire(self) -> Dict[str, Any]:
        # Memoized (and pre-seeded by from_wire) like Transaction.to_wire:
        # a Wire is immutable and serializes once, so the ledger stores
        # the write-set's own dict instead of rebuilding it per commit.
        wire = self.__dict__.get("_wire_cache")
        if wire is None:
            wire = Wire(
                {
                    "object_id": self.object_id,
                    "path": list(self.path),
                    "value": self.value,
                    "value_type": self.value_type,
                    "clock": self.clock.to_wire(),
                    "op_index": self.op_index,
                }
            )
            wire.fragment = self._render(wire["clock"])
            object.__setattr__(self, "_wire_cache", wire)
        return wire

    def _render(self, clock_wire: Any) -> str:
        """The wire's canonical fragment, rendered in one pass from the
        fields with the keys in sorted order. Every field goes through
        :func:`canonical_fragment`, so the bytes are the generic walk's
        for any field types. Every endorser renders every operation it
        emits, so this is the endorsement phase's hashing cost."""
        count_rendered(2)  # the operation and its path; the clock books itself
        return (
            f'{{"clock":{canonical_fragment(clock_wire)},'
            f'"object_id":{canonical_fragment(self.object_id)},'
            f'"op_index":{canonical_fragment(self.op_index)},'
            f'"path":[{",".join(map(canonical_fragment, self.path))}],'
            f'"value":{canonical_fragment(self.value)},'
            f'"value_type":{canonical_fragment(self.value_type)}}}'
        )

    @decode_once
    def from_wire(cls, wire: Mapping[str, Any]) -> "Operation":
        operation = cls(
            object_id=wire["object_id"],
            path=tuple(wire["path"]),
            value=wire["value"],
            value_type=wire["value_type"],
            clock=OpClock.from_wire(wire["clock"]),
            op_index=int(wire.get("op_index", 0)),
        )
        if isinstance(wire, dict):
            object.__setattr__(operation, "_wire_cache", wire)
        return operation


__all__ = [
    "Operation",
    "TYPE_GCOUNTER",
    "TYPE_MVREGISTER",
    "TYPE_MAP",
    "VALUE_TYPES",
]
