"""E14 — Table 1: modification and read APIs of supported CRDTs.

| CRDT        | Modification API              | Read API    |
|-------------|-------------------------------|-------------|
| G-Counter   | AddValue(value, clock)        | Read()      |
| CRDT Map    | InsertValue(key, value, clock)| Read(key)   |
| MV-Register | AssignValue(value, clock)     | Read()      |
"""

import inspect

from repro.crdt import CRDTMap, GCounter, MVRegister, OpClock


def test_gcounter_add_value_signature():
    signature = inspect.signature(GCounter.add)
    assert list(signature.parameters) == ["self", "value", "clock", "op_id"]
    counter = GCounter()
    counter.add(3, OpClock("c", 1), "c#1")
    assert counter.read() == 3


def test_crdtmap_insert_value_signature():
    signature = inspect.signature(CRDTMap.insert)
    assert list(signature.parameters) == ["self", "key", "value", "clock", "op_id"]
    crdt_map = CRDTMap()
    crdt_map.insert("k", "v", OpClock("c", 1), "c#1")
    assert crdt_map.read("k") == "v"


def test_mvregister_assign_value_signature():
    signature = inspect.signature(MVRegister.assign)
    assert list(signature.parameters) == ["self", "value", "clock", "op_id"]
    register = MVRegister()
    register.assign("v", OpClock("c", 1), "c#1")
    assert register.read() == ["v"]


def test_read_apis_require_no_clock():
    # Reads cause no side effects and require no CRDT operation
    # (Section 5), so no clock appears in any read signature.
    assert list(inspect.signature(GCounter.read).parameters) == ["self"]
    assert list(inspect.signature(MVRegister.read).parameters) == ["self"]
    assert list(inspect.signature(CRDTMap.read).parameters) == ["self", "key"]


def test_paper_crdt_types_are_exactly_table_1():
    # The three Table 1 types, all operation-based; no extension type.
    from repro.crdt.operation import VALUE_TYPES

    assert VALUE_TYPES == frozenset({"gcounter", "mvregister", "map"})
