"""Property-based tests for CRDT convergence invariants.

The strong-eventual-consistency argument (Theorem 8.2) rests on the
CRDTs themselves being commutative and idempotent under operation
delivery. These hypothesis tests exercise those invariants over
arbitrary operation sets, orders, and replica partitions that heal by
exchanging operations.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.crdt import (
    CRDTStore,
    GCounter,
    MVRegister,
    Operation,
    OpClock,
)

clients = st.sampled_from(["alice", "bob", "carol"])
counters = st.integers(min_value=1, max_value=20)
clocks = st.builds(OpClock, client_id=clients, counter=counters)


# Honest clients never reuse an operation id with a different payload
# (the id is derived from client, clock, and write-set index), so the
# strategies keep ids unique within a generated operation set.

@st.composite
def gcounter_ops(draw):
    clock = draw(clocks)
    index = draw(st.integers(min_value=0, max_value=3))
    value = draw(st.integers(min_value=0, max_value=100))
    return (value, clock, f"{clock.client_id}#{clock.counter}#{index}")


@st.composite
def register_ops(draw):
    clock = draw(clocks)
    index = draw(st.integers(min_value=0, max_value=3))
    value = draw(st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=5)))
    return (value, clock, f"{clock.client_id}#{clock.counter}#{index}")


def unique_ops(strategy, max_size):
    return st.lists(strategy, max_size=max_size, unique_by=lambda op: op[2])


@st.composite
def store_ops(draw):
    clock = draw(clocks)
    object_id = draw(st.sampled_from(["obj0", "obj1"]))
    key = draw(st.sampled_from(["k0", "k1", "k2"]))
    value_type = draw(st.sampled_from(["gcounter", "mvregister"]))
    index = draw(st.integers(min_value=0, max_value=3))
    value = (
        draw(st.integers(min_value=0, max_value=9))
        if value_type == "gcounter"
        else draw(st.text(max_size=4))
    )
    return Operation(
        object_id=object_id,
        path=(key,),
        value=value,
        value_type=value_type,
        clock=clock,
        op_index=index,
    )


@given(unique_ops(gcounter_ops(), 30), st.randoms())
def test_gcounter_commutativity(ops, rng):
    forward, shuffled = GCounter(), GCounter()
    for value, clock, op_id in ops:
        forward.add(value, clock, op_id)
    reordered = list(ops)
    rng.shuffle(reordered)
    for value, clock, op_id in reordered:
        shuffled.add(value, clock, op_id)
    assert forward.snapshot() == shuffled.snapshot()


@given(unique_ops(gcounter_ops(), 30))
def test_gcounter_idempotence(ops):
    once, twice = GCounter(), GCounter()
    for value, clock, op_id in ops:
        once.add(value, clock, op_id)
    for value, clock, op_id in ops + ops:
        twice.add(value, clock, op_id)
    assert once.snapshot() == twice.snapshot()


@given(unique_ops(gcounter_ops(), 20))
def test_gcounter_monotonicity(ops):
    counter = GCounter()
    last = 0
    for value, clock, op_id in ops:
        counter.add(value, clock, op_id)
        assert counter.read() >= last
        last = counter.read()


@given(unique_ops(register_ops(), 30), st.randoms())
def test_mvregister_commutativity(ops, rng):
    forward, shuffled = MVRegister(), MVRegister()
    for value, clock, op_id in ops:
        forward.assign(value, clock, op_id)
    reordered = list(ops)
    rng.shuffle(reordered)
    for value, clock, op_id in reordered:
        shuffled.assign(value, clock, op_id)
    assert forward.snapshot() == shuffled.snapshot()


@given(unique_ops(register_ops(), 30), st.integers(min_value=0, max_value=30))
def test_mvregister_merge_of_partitioned_replicas_converges(ops, split):
    split = min(split, len(ops))
    left, right = MVRegister(), MVRegister()
    for value, clock, op_id in ops[:split]:
        left.assign(value, clock, op_id)
    for value, clock, op_id in ops[split:]:
        right.assign(value, clock, op_id)
    # Merge: each side receives the other side's operations.
    for value, clock, op_id in ops[split:]:
        left.assign(value, clock, op_id)
    for value, clock, op_id in ops[:split]:
        right.assign(value, clock, op_id)
    assert left.snapshot() == right.snapshot()
    # And the merged state equals applying everything at one replica.
    combined = MVRegister()
    for value, clock, op_id in ops:
        combined.assign(value, clock, op_id)
    assert left.snapshot() == combined.snapshot()


@given(unique_ops(register_ops(), 25))
def test_mvregister_values_form_antichain(ops):
    register = MVRegister()
    for value, clock, op_id in ops:
        register.assign(value, clock, op_id)
    live = [OpClock.from_wire(pair["clock"]) for pair in register.snapshot()["pairs"]]
    for i, a in enumerate(live):
        for b in live[i + 1 :]:
            # No live pair happened-before another: a different client,
            # or the same client at the same counter.
            assert a.client_id != b.client_id or a.counter == b.counter


@settings(deadline=None)
@given(st.lists(store_ops(), max_size=40, unique_by=lambda op: (op.object_id, op.op_id)), st.randoms())
def test_store_convergence_lemma_6_1(ops, rng):
    """Lemma 6.1: state converges regardless of processing order."""
    a, b = CRDTStore(), CRDTStore()
    a.apply(ops)
    reordered = list(ops)
    rng.shuffle(reordered)
    b.apply(reordered)
    assert a.snapshot() == b.snapshot()


@settings(deadline=None)
@given(st.lists(store_ops(), max_size=40, unique_by=lambda op: (op.object_id, op.op_id)), st.integers(min_value=0, max_value=40))
def test_store_partition_merge_theorem_8_2(ops, split):
    """Partition healing: partitions that merge by exchanging their
    operations equal a single replica."""
    split = min(split, len(ops))
    left, right = CRDTStore(), CRDTStore()
    left.apply(ops[:split])
    right.apply(ops[split:])
    left.apply(ops[split:])
    right.apply(ops[:split])
    combined = CRDTStore()
    combined.apply(ops)
    assert left.snapshot() == right.snapshot() == combined.snapshot()


@st.composite
def mixed_type_ops(draw):
    """Any type at any path of one of two objects: the CRDT type is the
    submitting client's choice, so one object id may see all three."""
    clock = draw(clocks)
    value_type = draw(st.sampled_from(["gcounter", "mvregister", "map"]))
    if value_type == "gcounter":
        value = draw(st.integers(min_value=0, max_value=9))
    elif value_type == "map":
        value = draw(st.sampled_from(["k0", "k1"]))
    else:
        value = draw(st.one_of(st.none(), st.text(max_size=3)))
    return Operation(
        object_id=draw(st.sampled_from(["obj0", "obj1"])),
        path=draw(st.sampled_from([(), ("k0",), ("k1",), ("k0", "k1")])),
        value=value,
        value_type=value_type,
        clock=clock,
        op_index=draw(st.integers(min_value=0, max_value=3)),
    )


@settings(deadline=None)
@given(st.lists(mixed_type_ops(), max_size=40, unique_by=lambda op: (op.object_id, op.op_id)), st.randoms())
def test_mixed_type_operations_apply_in_any_order(ops, rng):
    """Every operation that parses applies: mixed types never raise, and
    two delivery orders give equal snapshots (and equal reads)."""
    a, b = CRDTStore(), CRDTStore()
    a.apply(ops)
    reordered = list(ops)
    rng.shuffle(reordered)
    b.apply(reordered)
    assert a.snapshot() == b.snapshot()
    for object_id in ("obj0", "obj1"):
        for path in [(), ("k0",), ("k1",), ("k0", "k1")]:
            assert repr(a.read(object_id, path)) == repr(b.read(object_id, path))
