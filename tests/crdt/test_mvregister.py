"""Tests for the MV-Register CRDT (Figure 4 semantics)."""

from repro.crdt import MVRegister, OpClock


def clock(counter, client="c"):
    return OpClock(client, counter)


def test_empty_register_reads_empty():
    register = MVRegister()
    assert register.read() == []
    assert register.read_single() is None


def test_later_assignment_overwrites_earlier():
    # Figure 4 left: Clock1 happened-before Clock2 -> value of op2 wins.
    register = MVRegister()
    register.assign(True, clock(1), "c#1")
    register.assign(False, clock(2), "c#2")
    assert register.read() == [False]


def test_overwrite_applies_regardless_of_arrival_order():
    register = MVRegister()
    register.assign(False, clock(2), "c#2")
    register.assign(True, clock(1), "c#1")  # stale: arrived late
    assert register.read() == [False]


def test_concurrent_assignments_keep_all_values():
    # Figure 4 right: no happened-before -> register stores all values.
    register = MVRegister()
    register.assign(True, clock(3, "alice"), "alice#3")
    register.assign(False, clock(4, "bob"), "bob#4")
    assert register.read() == [False, True]
    assert register.read_single() == [False, True]


def test_assignment_dominating_all_concurrent_values_collapses():
    register = MVRegister()
    register.assign("a", clock(1, "alice"), "alice#1")
    register.assign("b", clock(1, "bob"), "bob#1")
    # alice's second write dominates her first but not bob's.
    register.assign("c", clock(2, "alice"), "alice#2")
    assert register.read() == ["b", "c"]


def test_null_assignment_deletes():
    register = MVRegister()
    register.assign("value", clock(1), "c#1")
    register.assign(None, clock(2), "c#2")
    assert register.read() == []
    assert register.read_single() is None


def test_null_concurrent_with_value_keeps_value_visible():
    register = MVRegister()
    register.assign(None, clock(1, "alice"), "alice#1")
    register.assign("v", clock(1, "bob"), "bob#1")
    assert register.read() == ["v"]


def test_idempotent_redelivery():
    register = MVRegister()
    register.assign("x", clock(1), "c#1")
    register.assign("x", clock(1), "c#1")
    assert register.read() == ["x"]
    assert len(register.snapshot()["pairs"]) == 1


def test_order_independence_across_clients():
    ops = [
        ("a", clock(1, "alice"), "alice#1"),
        ("b", clock(2, "alice"), "alice#2"),
        ("c", clock(1, "bob"), "bob#1"),
    ]
    import itertools

    snapshots = set()
    for permutation in itertools.permutations(ops):
        register = MVRegister()
        for value, clk, op_id in permutation:
            register.assign(value, clk, op_id)
        snapshots.add(str(register.snapshot()))
    assert len(snapshots) == 1
    assert register.read() == ["b", "c"]


def test_merge_converges():
    a, b = MVRegister(), MVRegister()
    a.assign("x", clock(1, "alice"), "alice#1")
    b.assign("y", clock(1, "bob"), "bob#1")
    a.assign("y", clock(1, "bob"), "bob#1")  # merge: each receives the other's ops
    b.assign("x", clock(1, "alice"), "alice#1")
    assert a.snapshot() == b.snapshot()
    assert a.read() == ["x", "y"]


def test_merge_respects_happened_before():
    a, b = MVRegister(), MVRegister()
    a.assign("old", clock(1), "c#1")
    b.assign("new", clock(2), "c#2")
    a.assign("new", clock(2), "c#2")
    b.assign("old", clock(1), "c#1")
    assert a.read() == b.read() == ["new"]


def test_mixed_value_types_sort_deterministically():
    register = MVRegister()
    register.assign(1, clock(1, "a"), "a#1")
    register.assign("1", clock(1, "b"), "b#1")
    register.assign([1], clock(1, "c"), "c#1")
    assert register.read() == register.read()
    assert len(register.read()) == 3


def test_reading_at_most_one_value_builds_no_sort_keys(monkeypatch):
    import repro.crdt.mvregister as module

    calls = []
    original = module.canonical_bytes
    monkeypatch.setattr(
        module, "canonical_bytes", lambda value: calls.append(value) or original(value)
    )
    register = MVRegister()
    assert register.read() == []
    register.assign("only", clock(1, "alice"), "alice#1")
    register.assign(None, clock(1, "bob"), "bob#1")  # a concurrent delete is not a value
    assert register.read() == ["only"]
    assert register.read_single() == "only"
    assert calls == []
    register.assign("other", clock(1, "carol"), "carol#1")
    assert register.read() == ["only", "other"]
    assert len(calls) == 2
