"""Tests for the JSON CRDT document (FabricCRDT substrate)."""

from repro.crdt.json_crdt import JSONCRDTDocument


def test_empty_document():
    doc = JSONCRDTDocument()
    assert doc.value() == {}
    assert doc.size() == 0


def test_update_and_resolve():
    doc = JSONCRDTDocument()
    doc.update(("voter1",), True, "alice", 1)
    assert doc.value() == {"voter1": True}


def test_size_grows_with_every_update():
    # The property the FabricCRDT evaluation hinges on: metadata is
    # never garbage-collected, so documents grow monotonically.
    doc = JSONCRDTDocument()
    for i in range(10):
        doc.update(("k",), i, "alice", i)
    assert doc.size() == 10
    assert doc.value() == {"k": 9}


def test_lww_resolution_is_deterministic():
    a, b = JSONCRDTDocument(), JSONCRDTDocument()
    a.update(("k",), "from-alice", "alice", 5)
    a.update(("k",), "from-bob", "bob", 5)
    b.update(("k",), "from-bob", "bob", 5)
    b.update(("k",), "from-alice", "alice", 5)
    assert a.value() == b.value()
    # Tie on counter: higher client id wins the (counter, client) order.
    assert a.value() == {"k": "from-bob"}


def test_merge_is_union_and_idempotent():
    # A document merges another's updates by receiving them; twice is once.
    a = JSONCRDTDocument()
    a.update(("x",), 1, "alice", 1)
    for _ in range(2):
        a.update(("y",), 2, "bob", 1)
    assert a.size() == 2
    assert a.value() == {"x": 1, "y": 2}


def test_merge_commutes():
    updates = [(("a",), 1, "u1", 1), (("b",), 2, "u2", 1), (("a",), 3, "u1", 2)]
    forward, backward = JSONCRDTDocument(), JSONCRDTDocument()
    for path, value, client, counter in updates:  # left's updates, then right's
        forward.update(path, value, client, counter)
    for path, value, client, counter in updates[2:] + updates[:2]:  # right's, then left's
        backward.update(path, value, client, counter)
    assert forward.snapshot() == backward.snapshot()
    assert forward.value() == {"a": 3, "b": 2}


def test_nested_paths_build_nested_dicts():
    doc = JSONCRDTDocument()
    doc.update(("outer", "inner"), 7, "alice", 1)
    assert doc.value() == {"outer": {"inner": 7}}


def test_null_update_deletes_leaf():
    doc = JSONCRDTDocument()
    doc.update(("k",), "v", "alice", 1)
    doc.update(("k",), None, "alice", 2)
    assert doc.value() == {}
    assert doc.size() == 2  # the tombstone still occupies metadata
