"""A store of named CRDT objects (the organization's state view).

Each CRDT object has a unique identifier on the ledger (Section 6).
The store materializes object state from committed operations and
answers the read API. It backs both the in-memory cache and the
database-derived state at an organization.

The CRDT type of an operation is chosen by the client that submits it,
so two validly endorsed transactions may address one object id with
different types. As in :class:`~repro.crdt.crdtmap.CRDTMap` (distinct
types under one key are distinct objects), the store keeps one root per
(object id, type): every operation that parses applies, in any order.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.crdt.apply import apply_operation
from repro.crdt.base import CRDT
from repro.crdt.crdtmap import make_crdt
from repro.crdt.operation import TYPE_MAP, Operation


class CRDTStore:
    """Maps object identifiers to their root CRDT instances, one per type."""

    def __init__(self) -> None:
        self._objects: Dict[str, Dict[str, CRDT]] = {}

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._objects

    def object_ids(self) -> List[str]:
        return sorted(self._objects)

    def get(self, object_id: str, type_name: str) -> CRDT | None:
        """The root of ``type_name`` for ``object_id``, or ``None``."""
        return self._objects.get(object_id, {}).get(type_name)

    def root_for(self, operation: Operation) -> CRDT:
        """Get or create the root object targeted by ``operation``.

        An operation with a non-empty path addresses the map root; a
        root-addressed operation addresses the root of its own type.
        """
        roots = self._objects.get(operation.object_id)
        if roots is None:
            roots = self._objects[operation.object_id] = {}
        root_type = TYPE_MAP if operation.path else operation.value_type
        root = roots.get(root_type)
        if root is None:
            root = roots[root_type] = make_crdt(root_type)
        return root

    def apply(self, operations: Iterable[Operation]) -> None:
        """Apply operations, creating roots on demand (Algorithm 1)."""
        for operation in operations:
            apply_operation(self.root_for(operation), operation)

    def read(self, object_id: str, path: Iterable[str] = ()) -> Any:
        """Resolved value of the object (optionally a nested path).

        Reads cause no side effects (Table 1). Returns ``None`` for
        unknown objects or paths. An object holding roots of several
        types reads as ``{type_name: value}``.
        """
        roots = self._objects.get(object_id)
        if roots is None:
            return None
        path = tuple(path)
        if not path:
            return self._by_type(roots, "read")
        node = roots.get(TYPE_MAP)
        for key in path[:-1]:
            if node is None:
                return None
            node = node.get_child(key, TYPE_MAP)
        return None if node is None else node.read(path[-1])

    def snapshot(self) -> Any:
        """Canonical state of every object (for convergence checks)."""
        return {
            object_id: self._by_type(roots, "snapshot")
            for object_id, roots in sorted(self._objects.items())
        }

    @staticmethod
    def _by_type(roots: Dict[str, CRDT], method: str) -> Any:
        """``method`` of the object's one root or, when the object holds
        several types, ``{type_name: result}``."""
        if len(roots) == 1:
            (root,) = roots.values()
            return getattr(root, method)()
        return {name: getattr(root, method)() for name, root in sorted(roots.items())}


__all__ = ["CRDTStore"]
