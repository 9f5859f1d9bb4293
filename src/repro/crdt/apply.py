"""Algorithm 1 — applying operations to a CRDT object.

For every operation, the CRDT object is traversed from its root to the
location addressed by the operation's path; missing parts of the path
are created along the way; and the modification is applied at that
location with the built-in conflict resolution of the location's CRDT
type. Time and space complexity is O(n) in the number of operations.
"""

from __future__ import annotations

from repro.crdt.base import CRDT
from repro.crdt.crdtmap import CRDTMap
from repro.crdt.operation import TYPE_MAP, Operation
from repro.errors import CRDTError


def get_modify_location(crdt_obj: CRDT, operation: Operation) -> CRDT:
    """Traverse (creating missing parts) to the operation's location.

    This combines Algorithm 1's ``Create(OpPath)`` and
    ``GetModifyLoc(OpPath)`` steps.
    """
    if not operation.path:
        if crdt_obj.type_name != operation.value_type:
            raise CRDTError(
                f"operation of type {operation.value_type!r} addressed at the root of a "
                f"{crdt_obj.type_name!r} object {operation.object_id!r}"
            )
        return crdt_obj
    if not isinstance(crdt_obj, CRDTMap):
        raise CRDTError(
            f"operation path {operation.path!r} requires a map root, object "
            f"{operation.object_id!r} is a {crdt_obj.type_name!r}"
        )
    node: CRDTMap = crdt_obj
    for key in operation.path[:-1]:
        child = node.child(key, TYPE_MAP)
        assert isinstance(child, CRDTMap)
        node = child
    return node.child(operation.path[-1], operation.value_type)


def apply_operation(crdt_obj: CRDT, operation: Operation) -> None:
    """Apply one modification operation to ``crdt_obj``."""
    location = get_modify_location(crdt_obj, operation)
    location.apply(operation.value, operation.clock, operation.op_id)


__all__ = ["apply_operation", "get_modify_location"]
