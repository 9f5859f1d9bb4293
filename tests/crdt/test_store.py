"""Tests for the CRDT object store."""

from repro.crdt import CRDTStore, Operation, OpClock


def op(object_id, path=(), value=1, value_type="gcounter", client="c", counter=1):
    return Operation(
        object_id=object_id,
        path=tuple(path),
        value=value,
        value_type=value_type,
        clock=OpClock(client, counter),
    )


def test_empty_store():
    store = CRDTStore()
    assert len(store) == 0
    assert store.read("missing") is None
    assert store.get("missing", "gcounter") is None
    assert store.object_ids() == []


def test_root_type_inferred_from_operation():
    store = CRDTStore()
    store.apply([op("counter", value=2)])
    store.apply([op("mapped", path=("k",), value=1, counter=2)])
    assert store.get("counter", "gcounter").type_name == "gcounter"
    assert store.get("counter", "map") is None
    assert store.get("mapped", "map").type_name == "map"
    assert store.get("mapped", "gcounter") is None
    assert "counter" in store
    assert store.object_ids() == ["counter", "mapped"]


def test_read_nested_path():
    store = CRDTStore()
    store.apply([op("obj", path=("a", "b"), value_type="mvregister", value="deep")])
    assert store.read("obj", ("a", "b")) == "deep"
    assert store.read("obj", ("a",)) == {"b": "deep"}
    assert store.read("obj") == {"a": {"b": "deep"}}
    assert store.read("obj", ("a", "missing")) is None
    assert store.read("obj", ("a", "b", "too-deep")) is None


def test_reads_have_no_side_effects():
    store = CRDTStore()
    store.apply([op("obj", path=("k",))])
    before = store.snapshot()
    store.read("obj", ("k",))
    store.read("obj", ("nope",))
    assert store.snapshot() == before


def test_merge_unions_objects():
    # Stores merge by receiving each other's operations.
    a, b = CRDTStore(), CRDTStore()
    a_ops = [op("x", value=1, client="a")]
    b_ops = [op("y", value=2, client="b"), op("x", value=3, client="b", counter=2)]
    a.apply(a_ops)
    b.apply(b_ops)
    a.apply(b_ops)
    assert a.read("x") == 4
    assert a.read("y") == 2


def test_merge_copies_missing_objects():
    a, b = CRDTStore(), CRDTStore()
    b.apply([op("x", value=1)])
    a.apply([op("x", value=1)])  # merge: a receives b's operation
    b.apply([op("x", value=1, counter=2)])
    assert a.read("x") == 1  # a holds an independent root
    assert b.read("x") == 2


def test_one_object_holds_one_root_per_type():
    # The CRDT type is the client's choice, so two valid transactions
    # may address one object with different types. Like distinct types
    # under one CRDTMap key, they are distinct roots, in either order.
    ops = [
        op("x", value=1),
        op("x", value_type="mvregister", value="s", client="d"),
        op("x", path=("k",), value=2, client="e"),
    ]
    forward, backward = CRDTStore(), CRDTStore()
    forward.apply(ops)
    backward.apply(reversed(ops))
    assert forward.snapshot() == backward.snapshot()
    assert forward.read("x") == {"gcounter": 1, "map": {"k": 2}, "mvregister": ["s"]}
    assert forward.read("x", ("k",)) == 2
    assert len(forward) == 1 and forward.object_ids() == ["x"]
    assert sorted(forward.snapshot()["x"]) == ["gcounter", "map", "mvregister"]


def test_single_type_objects_read_and_snapshot_as_their_root():
    store = CRDTStore()
    store.apply([op("x", value=3)])
    assert store.read("x") == 3
    assert store.snapshot() == {"x": store.get("x", "gcounter").snapshot()}
    assert store.snapshot()["x"]["type"] == "gcounter"
    assert store.read("x", ("k",)) is None


def test_snapshot_equality_is_convergence():
    a, b = CRDTStore(), CRDTStore()
    ops = [op("o", path=("k",), value=i, client=f"c{i}", counter=i) for i in range(1, 4)]
    a.apply(ops)
    b.apply(reversed(ops))
    assert a.snapshot() == b.snapshot()
