"""CRDT map with nested composition.

"This CRDT is built upon a map data structure containing key-value
pairs. The key is an identifier, and the value can be any object ...
for creating more complex data structures, maps can be nested, where
the value of the key-value pairs can be either a new CRDT Map,
G-Counter, or MV-Register" (Section 5).

Conflict semantics (Figure 3): operations that modify different keys
are commutative; operations on identical keys resolve through the
happened-before relation, and concurrent values coexist. Direct
``InsertValue(key, value, clock)`` calls therefore behave as an
MV-Register at that key: a later (happened-after) insert overwrites,
concurrent inserts are both kept.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.crdt.base import CRDT
from repro.crdt.gcounter import GCounter
from repro.crdt.mvregister import MVRegister
from repro.crdt.operation import TYPE_GCOUNTER, TYPE_MAP, TYPE_MVREGISTER
from repro.errors import CRDTError


def make_crdt(type_name: str) -> CRDT:
    """Instantiate an empty CRDT of the named type."""
    if type_name == TYPE_GCOUNTER:
        return GCounter()
    if type_name == TYPE_MVREGISTER:
        return MVRegister()
    if type_name == TYPE_MAP:
        return CRDTMap()
    raise CRDTError(f"unknown CRDT type {type_name!r}")


class CRDTMap(CRDT):
    """An operation-based map of identifiers to nested CRDTs."""

    type_name = TYPE_MAP

    def __init__(self) -> None:
        # key -> type_name -> child CRDT. Distinct types under one key
        # are distinct objects (they arise only from concurrent inserts
        # of differently-typed values and are all retained).
        self._children: Dict[str, Dict[str, CRDT]] = {}
        self._sorted_keys: List[str] | None = None  # rebuilt when a key is added

    # -- structural access (used by Algorithm 1's path traversal) -----

    def child(self, key: str, type_name: str) -> CRDT:
        """Return the child of ``type_name`` at ``key``, creating it."""
        slot = self._children.get(str(key))
        if slot is None:
            slot = self._children[str(key)] = {}
            self._sorted_keys = None
        if type_name not in slot:
            slot[type_name] = make_crdt(type_name)
        return slot[type_name]

    def get_child(self, key: str, type_name: str) -> CRDT | None:
        """Return the child at ``key`` of ``type_name``, or ``None``."""
        return self._children.get(str(key), {}).get(type_name)

    def keys(self) -> List[str]:
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._children)
        return list(self._sorted_keys)

    def __contains__(self, key: str) -> bool:
        return str(key) in self._children

    def __len__(self) -> int:
        return len(self._children)

    # -- Table 1 modification / read APIs ------------------------------

    def insert(self, key: str, value: Any, clock: Any, op_id: str) -> None:
        """``InsertValue(key, value, clock)``: set ``key`` to a value.

        A plain value lands in an MV-Register at ``key`` so identical
        keys resolve by happened-before and concurrency keeps both
        values (Figure 3). ``None`` deletes.
        """
        register = self.child(str(key), TYPE_MVREGISTER)
        register.apply(value, clock, op_id)

    def apply(self, value: Any, clock: Any, op_id: str) -> None:
        """Apply a map-typed operation addressed at this node.

        The operation's value is the inserted key name; inserting a key
        creates an (empty) nested map under it. This is how contracts
        pre-create nested structure explicitly.
        """
        if not isinstance(value, str):
            raise CRDTError(f"map-typed operations carry the key to create, got {value!r}")
        self.child(value, TYPE_MAP)

    def read(self, key: str | None = None) -> Any:
        """``Read(key)``: the resolved value at ``key``.

        Without ``key``, returns the whole map as a plain dict.
        """
        if key is None:
            return {k: self.read(k) for k in self.keys()}
        slot = self._children.get(str(key))
        if not slot:
            return None
        if len(slot) == 1:
            (child,) = slot.values()
            return self._read_child(child)
        return {name: self._read_child(child) for name, child in sorted(slot.items())}

    @staticmethod
    def _read_child(child: CRDT) -> Any:
        if isinstance(child, MVRegister):
            return child.read_single()
        return child.read()

    # -- CRDT interface -------------------------------------------------

    def snapshot(self) -> Any:
        return {
            "type": self.type_name,
            "children": {
                key: {name: child.snapshot() for name, child in sorted(slot.items())}
                for key, slot in sorted(self._children.items())
            },
        }

    def __repr__(self) -> str:
        return f"CRDTMap(keys={self.keys()!r})"


__all__ = ["CRDTMap", "make_crdt"]
