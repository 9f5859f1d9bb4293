"""Tests for Algorithm 1 (ApplyOperations)."""

import pytest

from repro.crdt import CRDTMap, CRDTStore, GCounter, Operation, OpClock
from repro.crdt.apply import apply_operation, get_modify_location
from repro.errors import CRDTError


def op(object_id="obj", path=(), value=1, value_type="gcounter", client="c", counter=1):
    return Operation(
        object_id=object_id,
        path=tuple(path),
        value=value,
        value_type=value_type,
        clock=OpClock(client, counter),
    )


def test_root_addressed_operation_applies_to_root():
    counter = GCounter()
    apply_operation(counter, op(value=5))
    assert counter.read() == 5


def test_root_type_mismatch_rejected():
    with pytest.raises(CRDTError):
        apply_operation(GCounter(), op(value_type="mvregister", value="x"))


def test_path_on_non_map_root_rejected():
    with pytest.raises(CRDTError):
        apply_operation(GCounter(), op(path=("k",)))


def test_missing_path_parts_are_created():
    # "parts of the path might not have been added to the object yet.
    # Therefore, the missing parts are created" (Section 6).
    root = CRDTMap()
    apply_operation(root, op(path=("a", "b", "c"), value=3))
    assert root.read("a") == {"b": {"c": 3}}


def test_get_modify_location_returns_typed_leaf():
    root = CRDTMap()
    location = get_modify_location(root, op(path=("x",), value_type="gcounter"))
    assert isinstance(location, GCounter)


def test_apply_operations_batch():
    store = CRDTStore()
    operations = [
        op(path=("votes",), value=1, client="a", counter=1),
        op(path=("votes",), value=1, client="b", counter=1),
        op(path=("winner",), value_type="mvregister", value="alice", client="a", counter=2),
    ]
    store.apply(operations)
    assert store.read("obj", ("votes",)) == 2
    assert store.read("obj", ("winner",)) == "alice"


def test_apply_operations_is_order_independent():
    import itertools

    operations = [
        op(path=("m", "k1"), value_type="mvregister", value="x", client="a", counter=1),
        op(path=("m", "k1"), value_type="mvregister", value="y", client="a", counter=2),
        op(path=("m", "k2"), value_type="mvregister", value="z", client="b", counter=1),
        op(path=("count",), value=2, client="b", counter=2),
    ]
    snapshots = set()
    for permutation in itertools.permutations(operations):
        store = CRDTStore()
        store.apply(permutation)
        snapshots.add(str(store.snapshot()))
    assert len(snapshots) == 1


def test_redelivered_operations_are_noops():
    store = CRDTStore()
    the_op = op(path=("k",), value=1)
    store.apply([the_op, the_op, the_op])
    assert store.read("obj", ("k",)) == 1
