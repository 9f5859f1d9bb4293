"""Tests for the per-application ledger (log + committed set + cache)."""

import pytest

from repro.crdt import Operation, OpClock
from repro.crdt.store import CRDTStore
from repro.ledger import Ledger


def op(object_id="obj", path=("k",), value=1, value_type="gcounter", client="c", counter=1, index=0):
    return Operation(
        object_id=object_id,
        path=tuple(path),
        value=value,
        value_type=value_type,
        clock=OpClock(client, counter),
        op_index=index,
    )


def test_commit_valid_updates_log_db_and_cache():
    ledger = Ledger()
    block = ledger.commit("t1", [op()], {"txn": "t1"}, valid=True)
    assert block.valid
    assert ledger.has_transaction("t1")
    assert ledger.is_valid_transaction("t1")
    assert ledger.read("obj", ("k",)) == 1
    assert len(ledger.operations_for("obj")) == 1


def test_commit_invalid_logs_but_does_not_apply():
    # "all valid and invalid transactions are appended to the hash-chain
    # log. The invalid transactions are added to the ledger for
    # bookkeeping purposes" (Section 4).
    ledger = Ledger()
    ledger.commit("bad", [], {"txn": "bad"}, valid=False)
    assert ledger.has_transaction("bad")
    assert not ledger.is_valid_transaction("bad")
    assert len(ledger.log) == 1
    assert ledger.read("obj") is None
    assert ledger.transaction_count == 1
    assert ledger.valid_transaction_count == 0


def test_double_commit_rejected():
    ledger = Ledger()
    ledger.commit("t1", [op()], {"txn": "t1"}, valid=True)
    with pytest.raises(ValueError):
        ledger.commit("t1", [op()], {"txn": "t1"}, valid=True)


def test_read_through_cache_and_replay_agree():
    # The cache is an optimization, not a semantics change: a read
    # equals a replay of the object's committed operations.
    ledger = Ledger()
    for i in range(1, 4):
        ledger.commit(f"t{i}", [op(counter=i, client=f"c{i}")], {"txn": i}, valid=True)
    ledger.commit("t9", [op(counter=9, client="c9")], {"txn": 9}, valid=False)
    replay = CRDTStore()
    replay.apply(ledger.operations_for("obj"))
    assert ledger.read("obj", ("k",)) == replay.read("obj", ("k",)) == 3


def test_state_snapshot_reflects_only_valid_transactions():
    ledger = Ledger()
    ledger.commit("good", [op()], {}, valid=True)
    ledger.commit("bad", [op(counter=9)], {}, valid=False)
    snapshot = ledger.state_snapshot()
    replay = Ledger()
    replay.commit("good", [op()], {}, valid=True)
    assert snapshot == replay.state_snapshot()


def test_rebuild_cache_matches_incremental_cache():
    ledger = Ledger()
    for i in range(1, 5):
        ledger.commit(f"t{i}", [op(counter=i)], {}, valid=True)
    before = ledger.read("obj", ("k",))
    ledger.rebuild_cache()
    assert ledger.read("obj", ("k",)) == before


def test_operations_for_preserves_commit_order():
    ledger = Ledger()
    ledger.commit("t1", [op(counter=1, value=1)], {}, valid=True)
    ledger.commit("t2", [op(counter=2, value=2)], {}, valid=True)
    values = [o.value for o in ledger.operations_for("obj")]
    assert values == [1, 2]


def test_transactions_view_filters_validity():
    ledger = Ledger()
    ledger.commit("t1", [op()], {"id": 1}, valid=True)
    ledger.commit("t2", [], {"id": 2}, valid=False)
    assert [block.payload for block in ledger.log] == [{"id": 1}, {"id": 2}]
    assert list(ledger.valid.values()) == [{"id": 1}]


def test_verify_integrity_walks_chain():
    ledger = Ledger()
    for i in range(3):
        ledger.commit(f"t{i}", [], {"id": i}, valid=False)
    ledger.verify_integrity()
    ledger.log.tamper(0, {"id": "evil"})
    with pytest.raises(Exception):
        ledger.verify_integrity()


def test_cached_object_access():
    ledger = Ledger()
    assert ledger.cached_object("obj", "map") is None
    ledger.commit("t1", [op()], {}, valid=True)
    assert ledger.cached_object("obj", "map") is not None
    assert ledger.cached_object("obj", "gcounter") is None


def test_commit_stores_the_parsed_wire_without_rebuilding_it():
    wire = op(value_type="mvregister", value="x").to_wire()
    write_set = [dict(wire)]
    ledger = Ledger()
    ledger.commit("t1", [Operation.from_wire(write_set[0])], {"txn": "t1"}, valid=True)
    ((stored,),) = ledger.ops.values()
    assert stored is write_set[0]
    assert ledger.valid == {"t1": {"txn": "t1"}}
    assert ledger.operations_for("obj") == [Operation.from_wire(wire)]


def test_object_id_above_the_basic_plane_is_snapshotted_and_rebuilt():
    # An object id whose first character lies above U+FFFF sorted past
    # the end of a string-key prefix range and vanished from both.
    ledger = Ledger()
    ledger.commit("t1", [op(object_id="\U0001F600")], {}, valid=True)
    assert list(ledger.state_snapshot()) == ["\U0001F600"]
    ledger.rebuild_cache()
    assert ledger.read("\U0001F600", ("k",)) == 1


def test_operations_for_excludes_objects_sharing_a_prefix():
    ledger = Ledger()
    ledger.commit("t1", [op(object_id="a", value=1)], {}, valid=True)
    ledger.commit("t2", [op(object_id="a/b", value=5, counter=2)], {}, valid=True)
    assert [o.value for o in ledger.operations_for("a")] == [1]
    assert ledger.read("a", ("k",)) == 1


def test_invalid_then_valid_commit_is_recorded_once():
    ledger = Ledger()
    ledger.commit("t1", [], {"copy": "forged"}, valid=False)
    ledger.commit("t1", [op()], {"copy": "honest"}, valid=True)
    assert ledger.valid == {"t1": {"copy": "honest"}}
    assert ledger.transaction_count == 1
    assert len(ledger.log) == 2
    with pytest.raises(ValueError):
        ledger.commit("t1", [], {}, valid=False)
