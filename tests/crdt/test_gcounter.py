"""Tests for the G-Counter CRDT."""

import pytest

from repro.crdt import GCounter, OpClock
from repro.errors import CRDTError


def clock(counter, client="c"):
    return OpClock(client, counter)


def test_empty_counter_reads_zero():
    assert GCounter().read() == 0


def test_increments_accumulate():
    counter = GCounter()
    counter.add(5, clock(1), "c#1")
    counter.add(3, clock(2), "c#2")
    assert counter.read() == 8


def test_apply_is_idempotent():
    counter = GCounter()
    counter.add(5, clock(1), "c#1")
    counter.add(5, clock(1), "c#1")
    assert counter.read() == 5


def test_negative_increment_rejected():
    with pytest.raises(CRDTError):
        GCounter().add(-1, clock(1), "c#1")


def test_non_numeric_increment_rejected():
    with pytest.raises(CRDTError):
        GCounter().add("ten", clock(1), "c#1")
    with pytest.raises(CRDTError):
        GCounter().add(True, clock(1), "c#1")


def test_order_independence():
    ops = [(i, clock(i, f"client{i}"), f"client{i}#{i}") for i in range(1, 6)]
    forward, backward = GCounter(), GCounter()
    for value, clk, op_id in ops:
        forward.add(value, clk, op_id)
    for value, clk, op_id in reversed(ops):
        backward.add(value, clk, op_id)
    assert forward.snapshot() == backward.snapshot()
    assert forward.read() == backward.read() == 15


def test_merge_is_union_of_increments():
    # Two replicas merge by delivering each other's operations; an
    # increment both already held counts once.
    a, b = GCounter(), GCounter()
    a.add(1, clock(1, "x"), "x#1")
    b.add(2, clock(1, "y"), "y#1")
    b.add(1, clock(1, "x"), "x#1")  # shared op
    a.add(2, clock(1, "y"), "y#1")
    a.add(1, clock(1, "x"), "x#1")
    assert a.read() == b.read() == 3


def test_float_values_preserved():
    counter = GCounter()
    counter.add(0.5, clock(1), "c#1")
    counter.add(0.25, clock(2), "c#2")
    assert counter.read() == 0.75


def test_integer_reads_stay_integers():
    counter = GCounter()
    counter.add(2.0, clock(1), "c#1")
    assert counter.read() == 2
    assert isinstance(counter.read(), int)


def test_equality_by_snapshot():
    a, b = GCounter(), GCounter()
    a.add(1, clock(1), "c#1")
    b.add(1, clock(1), "c#1")
    assert a.snapshot() == b.snapshot()
    b.add(1, clock(2), "c#2")
    assert a.snapshot() != b.snapshot()


def test_read_does_not_walk_the_increments():
    counter = GCounter()
    for n in range(50):
        counter.add(n, clock(n + 1), f"c#{n + 1}")
    counter._increments = None  # a read that summed the map would fail here
    assert counter.read() == sum(range(50))


def test_running_total_adds_in_insertion_order_under_redelivery():
    import functools
    import operator

    amounts = [0.1, 0.2, 0.3, 1, 2.5, 1e16, 1.0, 3]
    ops = [(amount, clock(n + 1, "a"), f"a#{n + 1}") for n, amount in enumerate(amounts)]
    counter = GCounter()
    for value, clk, op_id in ops[:4] + ops[:1] + ops[4:] + ops:
        counter.add(value, clk, op_id)  # redelivered ones are skipped
    assert counter.read() == functools.reduce(operator.add, amounts, 0)
