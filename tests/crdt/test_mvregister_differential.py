"""Differential test: the indexed MV-Register against the linear scan.

``MVRegister`` indexes its live pairs by writer; ``LinearScanRegister``
(tests-only) is the register it replaced, which compares every new
assignment against every live pair. Both are driven through the same
script — applies in any order over several replicas — over the
``OpClock``s of several clients, equal-clock write-sets and ``None``
deletes, and must agree on every observable after every step.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.crdt import MVRegister, OpClock, Operation

from tests.crdt.linear_scan_register import LinearScanRegister

REPLICAS = 3

values = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3))
op_clocks = st.builds(
    OpClock, client_id=st.sampled_from(["alice", "bob", "carol"]), counter=st.integers(1, 6)
)


def assignments(clocks):
    """Unique ``(value, clock, op_id)`` triples; op ids as ``Operation`` derives them.

    ``op_index`` up to 3 gives several operations under one clock — the
    equal-clock case of a write-set touching one register repeatedly.
    """

    def build(value, clock, index):
        op = Operation("obj", (), value, "mvregister", clock, op_index=index)
        return (value, clock, op.op_id)

    return st.lists(
        st.builds(build, values, clocks, st.integers(0, 3)),
        max_size=24,
        unique_by=lambda op: op[2],
    )


def observe(register):
    # repr, not ==: True == 1 and False == 0 would hide a swapped value.
    return (
        repr(register.read()),
        repr(register.read_single()),
        repr(register.snapshot()),
    )


@st.composite
def scripts(draw, clocks):
    """Ops plus a list of ``(replica, op index)`` apply steps over
    ``REPLICAS`` replicas."""
    ops = draw(assignments(clocks))
    step = st.tuples(st.integers(0, REPLICAS - 1), st.integers(0, max(0, len(ops) - 1)))
    return ops, draw(st.lists(step, max_size=40))


def run_script(ops, steps):
    indexed = [MVRegister() for _ in range(REPLICAS)]
    reference = [LinearScanRegister() for _ in range(REPLICAS)]
    for target, index in steps:
        for replicas in (indexed, reference):
            if ops:
                replicas[target].assign(*ops[index])
        assert [observe(r) for r in indexed] == [observe(r) for r in reference]


@settings(deadline=None, max_examples=200)
@given(scripts(op_clocks))
def test_op_clock_scripts_match_linear_scan(script):
    run_script(*script)


@settings(deadline=None)
@given(assignments(op_clocks), st.randoms())
def test_every_permutation_matches_linear_scan(ops, rng):
    shuffled = list(ops)
    rng.shuffle(shuffled)
    indexed, reference = MVRegister(), LinearScanRegister()
    for op in shuffled:
        indexed.assign(*op)
        reference.assign(*op)
        assert observe(indexed) == observe(reference)
    in_order = MVRegister()
    for op in ops:
        in_order.assign(*op)
    assert observe(in_order) == observe(indexed)
