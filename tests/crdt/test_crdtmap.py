"""Tests for the CRDT Map (Figure 3 semantics and nesting)."""

import pytest

from repro.crdt import CRDTMap, GCounter, MVRegister, OpClock
from repro.crdt.crdtmap import make_crdt
from repro.errors import CRDTError


def clock(counter, client="c"):
    return OpClock(client, counter)


def test_empty_map():
    crdt_map = CRDTMap()
    assert crdt_map.keys() == []
    assert len(crdt_map) == 0
    assert crdt_map.read() == {}
    assert crdt_map.read("missing") is None


def test_insert_and_read():
    crdt_map = CRDTMap()
    crdt_map.insert("voter1", True, clock(1), "c#1")
    assert crdt_map.read("voter1") is True
    assert "voter1" in crdt_map
    assert crdt_map.keys() == ["voter1"]


def test_different_keys_commute():
    crdt_map = CRDTMap()
    crdt_map.insert("a", 1, clock(1, "x"), "x#1")
    crdt_map.insert("b", 2, clock(1, "y"), "y#1")
    assert crdt_map.read() == {"a": 1, "b": 2}


def test_same_key_happened_before_overwrites():
    # Figure 3 left: Clock1 happened-before Clock2 -> register2 wins.
    crdt_map = CRDTMap()
    crdt_map.insert("voter1", "register1", clock(1), "c#1")
    crdt_map.insert("voter1", "register2", clock(2), "c#2")
    assert crdt_map.read("voter1") == "register2"


def test_same_key_concurrent_keeps_both():
    # Figure 3 right: no happened-before -> both values retained.
    crdt_map = CRDTMap()
    crdt_map.insert("voter1", "register3", clock(3, "alice"), "alice#3")
    crdt_map.insert("voter1", "register4", clock(4, "bob"), "bob#4")
    assert crdt_map.read("voter1") == ["register3", "register4"]


def test_null_insert_deletes_key_value():
    crdt_map = CRDTMap()
    crdt_map.insert("k", "v", clock(1), "c#1")
    crdt_map.insert("k", None, clock(2), "c#2")
    assert crdt_map.read("k") is None


def test_nested_children_created_on_demand():
    crdt_map = CRDTMap()
    child = crdt_map.child("inner", "map")
    assert isinstance(child, CRDTMap)
    counter = child.child("count", "gcounter")
    assert isinstance(counter, GCounter)
    counter.add(2, clock(1), "c#1")
    assert crdt_map.read("inner") == {"count": 2}


def test_get_child_returns_none_when_absent():
    crdt_map = CRDTMap()
    assert crdt_map.get_child("x", "gcounter") is None
    crdt_map.child("x", "gcounter")
    assert isinstance(crdt_map.get_child("x", "gcounter"), GCounter)


def test_map_typed_apply_creates_nested_map():
    crdt_map = CRDTMap()
    crdt_map.apply("section", clock(1), "c#1")
    assert isinstance(crdt_map.get_child("section", "map"), CRDTMap)


def test_map_typed_apply_requires_string_key():
    with pytest.raises(CRDTError):
        CRDTMap().apply(42, clock(1), "c#1")


def test_merge_converges_recursively():
    a, b = CRDTMap(), CRDTMap()
    a.insert("k", "from-a", clock(1, "alice"), "alice#1")
    b.insert("k", "from-b", clock(1, "bob"), "bob#1")
    a.child("nested", "gcounter").add(1, clock(2, "alice"), "alice#2")
    b.child("nested", "gcounter").add(2, clock(2, "bob"), "bob#2")
    # Merge: each side receives the other's operations.
    a.insert("k", "from-b", clock(1, "bob"), "bob#1")
    a.child("nested", "gcounter").add(2, clock(2, "bob"), "bob#2")
    b.insert("k", "from-a", clock(1, "alice"), "alice#1")
    b.child("nested", "gcounter").add(1, clock(2, "alice"), "alice#2")
    assert a.snapshot() == b.snapshot()
    assert a.read("k") == ["from-a", "from-b"]
    assert a.read("nested") == 3


def test_multiple_child_types_under_one_key_read_as_dict():
    crdt_map = CRDTMap()
    crdt_map.insert("k", "value", clock(1, "a"), "a#1")
    crdt_map.child("k", "gcounter").add(1, clock(1, "b"), "b#1")
    value = crdt_map.read("k")
    assert value == {"gcounter": 1, "mvregister": "value"}


def test_make_crdt_factory():
    assert isinstance(make_crdt("gcounter"), GCounter)
    assert isinstance(make_crdt("mvregister"), MVRegister)
    assert isinstance(make_crdt("map"), CRDTMap)
    with pytest.raises(CRDTError):
        make_crdt("lww")


def test_non_string_keys_are_coerced():
    crdt_map = CRDTMap()
    crdt_map.insert(42, "v", clock(1), "c#1")
    assert crdt_map.read("42") == "v"


def test_whole_map_read_stays_key_sorted_as_keys_arrive():
    crdt_map = CRDTMap()
    for key in ["m", "b", "z"]:
        crdt_map.insert(key, key.upper(), clock(1, key), f"{key}#1")
        assert list(crdt_map.read()) == sorted(crdt_map.read())
    assert list(crdt_map.read()) == ["b", "m", "z"]
    crdt_map.child("a", "gcounter")  # created by path traversal, not insert
    assert list(crdt_map.read()) == ["a", "b", "m", "z"]
    crdt_map.insert("c", 1, clock(1), "c#1")
    assert list(crdt_map.read()) == crdt_map.keys() == ["a", "b", "c", "m", "z"]


def test_keys_returns_a_list_the_caller_may_change():
    crdt_map = CRDTMap()
    crdt_map.insert("k", 1, clock(1), "c#1")
    crdt_map.keys().append("junk")
    assert crdt_map.keys() == ["k"]
    assert crdt_map.read() == {"k": 1}


def test_read_of_a_key_holding_two_types_lists_both_by_type_name():
    crdt_map = CRDTMap()
    crdt_map.insert("k", "text", clock(1), "c#1")
    crdt_map.child("k", "gcounter").apply(2, clock(2), "c#2")
    assert list(crdt_map.read("k").items()) == [("gcounter", 2), ("mvregister", "text")]
