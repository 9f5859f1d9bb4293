"""Merge-law property tests for every CRDT, over operation delivery.

The CRDTs are operation-based: replicas never exchange state. Two
replicas *merge* the way anti-entropy heals a partition — each receives
the operations the other has (its own and those relayed to it) — and
every replica applies every committed operation in whatever order push
gossip and anti-entropy deliver it, possibly more than once. The
paper's Theorem 8.2 rests on the laws these hypothesis tests check for
G-Counter, MV-Register and CRDT Map, and for the JSON document used by
the FabricCRDT baseline:

* **delivery order independence** — any delivery order gives the same
  state;
* **merge commutativity, associativity and idempotence** — which side
  receives first, whether operations arrive directly or relayed through
  a third replica, and redelivery do not change the state;
* **apply/merge equivalence** — replicas that received disjoint parts
  of the operations during a partition and then merge end in the state
  of a single replica that received everything.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.crdt import CRDTMap, GCounter, MVRegister, OpClock
from repro.crdt.json_crdt import JSONCRDTDocument

clients = st.sampled_from(["a", "b", "c"])
scalars = st.one_of(st.integers(min_value=-5, max_value=5), st.text(max_size=3), st.booleans())


class Case:
    """One CRDT type: how to make it and deliver one op to it."""

    def __init__(self, make, deliver):
        self.make = make
        self.deliver = deliver

    def build(self, ops):
        crdt = self.make()
        for op in ops:
            self.deliver(crdt, op)
        return crdt


class Replica:
    """A replica's state plus the operations it has received, which it
    hands on when it merges with another replica (as anti-entropy does)."""

    def __init__(self, case, ops=()):
        self.case = case
        self.crdt = case.make()
        self.log = []
        for op in ops:
            self.deliver(op)

    def deliver(self, op):
        self.case.deliver(self.crdt, op)
        self.log.append(op)

    def merge(self, other):
        """Receive every operation ``other`` has received."""
        for op in list(other.log):
            self.deliver(op)
        return self

    def snapshot(self):
        return self.crdt.snapshot()


# -- per-type operation strategies (op ids as Operation derives them:
# client, Lamport counter, write-set index; unique within a run) --


@st.composite
def stamps(draw, index):
    client = draw(clients)
    counter = draw(st.integers(min_value=1, max_value=6))
    return OpClock(client, counter), f"{client}#{counter}#{index}"


@st.composite
def gcounter_ops(draw):
    count = draw(st.integers(min_value=0, max_value=12))
    ops = []
    for index in range(count):
        clock, op_id = draw(stamps(index))
        ops.append((draw(st.integers(min_value=0, max_value=50)), clock, op_id))
    return ops


@st.composite
def mvregister_ops(draw):
    count = draw(st.integers(min_value=0, max_value=12))
    ops = []
    for index in range(count):
        clock, op_id = draw(stamps(index))
        ops.append((draw(st.one_of(st.none(), scalars)), clock, op_id))
    return ops


@st.composite
def crdtmap_ops(draw):
    count = draw(st.integers(min_value=0, max_value=12))
    ops = []
    for index in range(count):
        clock, op_id = draw(stamps(index))
        key = draw(st.sampled_from(["k1", "k2", "k3"]))
        ops.append((key, draw(scalars), clock, op_id))
    return ops


@st.composite
def json_ops(draw):
    """Updates with unique (client, counter) identities."""
    count = draw(st.integers(min_value=0, max_value=12))
    ops = []
    for index in range(count):
        path = draw(st.lists(st.sampled_from(["p", "q", "r"]), min_size=1, max_size=3))
        ops.append((tuple(path), draw(scalars), draw(clients), index + 1))
    return ops


CASES = {
    "gcounter": Case(GCounter, lambda c, op: c.apply(*op)),
    "mvregister": Case(MVRegister, lambda c, op: c.apply(*op)),
    "crdtmap": Case(CRDTMap, lambda c, op: c.insert(*op)),
    "json_crdt": Case(JSONCRDTDocument, lambda c, op: c.update(*op)),
}

OPS = {
    "gcounter": gcounter_ops(),
    "mvregister": mvregister_ops(),
    "crdtmap": crdtmap_ops(),
    "json_crdt": json_ops(),
}

TYPE_NAMES = sorted(CASES)


def _split(ops, labels, parts):
    groups = [[] for _ in range(parts)]
    for op, label in zip(ops, labels):
        groups[label % parts].append(op)
    return groups


@pytest.mark.parametrize("type_name", TYPE_NAMES)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_delivery_order_independence(type_name, data):
    case = CASES[type_name]
    ops = data.draw(OPS[type_name])
    reordered = data.draw(st.permutations(ops))
    assert case.build(ops).snapshot() == case.build(reordered).snapshot()


@pytest.mark.parametrize("type_name", TYPE_NAMES)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_merge_commutativity(type_name, data):
    case = CASES[type_name]
    ops = data.draw(OPS[type_name])
    labels = data.draw(st.lists(st.integers(0, 1), min_size=len(ops), max_size=len(ops)))
    part_a, part_b = _split(ops, labels, 2)
    ab = Replica(case, part_a).merge(Replica(case, part_b))
    ba = Replica(case, part_b).merge(Replica(case, part_a))
    assert ab.snapshot() == ba.snapshot()


@pytest.mark.parametrize("type_name", TYPE_NAMES)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_merge_associativity(type_name, data):
    """(a <- b) <- c equals a <- (b <- c): operations relayed through a
    third replica land as if received directly."""
    case = CASES[type_name]
    ops = data.draw(OPS[type_name])
    labels = data.draw(st.lists(st.integers(0, 2), min_size=len(ops), max_size=len(ops)))
    part_a, part_b, part_c = _split(ops, labels, 3)
    left = Replica(case, part_a).merge(Replica(case, part_b)).merge(Replica(case, part_c))
    right = Replica(case, part_a).merge(Replica(case, part_b).merge(Replica(case, part_c)))
    assert left.snapshot() == right.snapshot()


@pytest.mark.parametrize("type_name", TYPE_NAMES)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_merge_idempotence(type_name, data):
    """Redelivery is a no-op: merging what a replica already holds, or
    any of its operations again, leaves its state unchanged."""
    case = CASES[type_name]
    ops = data.draw(OPS[type_name])
    once = Replica(case, ops)
    baseline = once.snapshot()
    once.merge(Replica(case, ops))
    assert once.snapshot() == baseline
    once.merge(once)
    assert once.snapshot() == baseline
    if ops:
        for op in data.draw(st.lists(st.sampled_from(ops), max_size=12)):
            once.deliver(op)
        assert once.snapshot() == baseline


@pytest.mark.parametrize("type_name", TYPE_NAMES)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_apply_merge_equivalence(type_name, data):
    """Theorem 8.2 as the system heals: direct delivery of every op ==
    merging partitioned replicas that split them, on every side."""
    case = CASES[type_name]
    ops = data.draw(OPS[type_name])
    labels = data.draw(st.lists(st.integers(0, 2), min_size=len(ops), max_size=len(ops)))
    direct = case.build(ops).snapshot()
    replicas = [Replica(case, group) for group in _split(ops, labels, 3)]
    first, second, third = replicas
    first.merge(second).merge(third)
    second.merge(first)  # first's log relays third's operations too
    third.merge(second)
    assert [replica.snapshot() for replica in replicas] == [direct] * 3
