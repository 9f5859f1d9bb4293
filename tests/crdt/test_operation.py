"""Tests for CRDT operations (Section 6's four components)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.crdt import Operation, OpClock
from repro.errors import CRDTError


def make_op(**overrides):
    defaults = dict(
        object_id="obj",
        path=("k",),
        value=1,
        value_type="gcounter",
        clock=OpClock("alice", 3),
    )
    defaults.update(overrides)
    return Operation(**defaults)


def test_op_id_combines_client_and_clock():
    assert make_op().op_id == "alice#3#0"
    assert make_op(op_index=2).op_id == "alice#3#2"


def test_unknown_value_type_rejected():
    with pytest.raises(CRDTError):
        make_op(value_type="lww")


def test_gcounter_value_must_be_numeric_and_non_negative():
    with pytest.raises(CRDTError):
        make_op(value="one")
    with pytest.raises(CRDTError):
        make_op(value=-5)
    with pytest.raises(CRDTError):
        make_op(value=True)


def test_mvregister_value_can_be_anything():
    op = make_op(value_type="mvregister", value=None)
    assert op.value is None


def test_path_is_normalized_to_tuple():
    op = make_op(path=["a", "b"])
    assert op.path == ("a", "b")


def test_wire_roundtrip():
    op = make_op(path=("party1", "voter1"), value_type="mvregister", value=True)
    restored = Operation.from_wire(op.to_wire())
    assert restored == op
    assert restored.op_id == op.op_id


def test_map_value_must_be_the_key_to_create():
    assert make_op(value_type="map", value="section").value == "section"
    for value in (42, None, ["k"], {"k": 1}):
        with pytest.raises(CRDTError):
            make_op(value_type="map", value=value)


def test_wire_with_a_vector_clock_does_not_parse():
    wire = dict(make_op(value_type="mvregister", value="x").to_wire(), clock={"vector": {"n1": 2}})
    with pytest.raises(KeyError):
        Operation.from_wire(wire)


def test_wire_with_the_retired_orset_type_does_not_parse():
    wire = dict(make_op().to_wire(), value_type="orset", value={"add": "x"})
    with pytest.raises(CRDTError):
        Operation.from_wire(wire)


def test_op_id_is_the_same_in_every_process():
    """Operation ids never depend on per-process state such as the
    randomized string hash: two organizations in separate processes
    must agree on the id of one operation."""
    script = (
        "from repro.crdt import Operation, OpClock;"
        "print(Operation('obj', (), 'x', 'mvregister',"
        " OpClock('node-a', 5), op_index=1).op_id)"
    )
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    seen = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source_root)
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        seen.add(output.stdout.strip())
    assert seen == {"node-a#5#1"}


def test_to_wire_is_built_once():
    op = make_op(path=("party1", "voter1"), value_type="mvregister", value=True)
    assert op.to_wire() is op.to_wire()


def test_from_wire_keeps_the_wire_it_parsed():
    wire = make_op(value_type="mvregister", value="x").to_wire()
    copy = dict(wire)
    restored = Operation.from_wire(copy)
    assert restored.to_wire() is copy
    # A tampered operation is a new dict (immutable-wire convention) and
    # parses to its own value.
    tampered = Operation.from_wire(dict(wire, value="<tampered>"))
    assert tampered.value == "<tampered>"
    assert tampered.to_wire()["value"] == "<tampered>"
    assert restored.value == "x"
