"""The state layer's cost per operation does not grow with history.

Algorithm 1 promises O(n) for n operations. These tests count clock
comparisons — the reference register's pairwise happened-before calls
and ordering tests on Lamport counters — never seconds, so they are
exact and safe to gate in CI. The counts are taken through
``CRDTStore.apply``, the path a commit takes.
"""

import pytest

from repro.crdt import CRDTStore, OpClock, Operation

import tests.crdt.linear_scan_register as reference_module
from tests.crdt.linear_scan_register import LinearScanRegister, happened_before


class Tally:
    def __init__(self):
        self.comparisons = 0


class CountedInt(int):
    """A Lamport counter that reports every ordering test made on it."""

    tally = None

    def _counted(name):
        def compare(self, other):
            CountedInt.tally.comparisons += 1
            return getattr(int, name)(self, other)

        return compare

    __lt__ = _counted("__lt__")
    __le__ = _counted("__le__")
    __gt__ = _counted("__gt__")
    __ge__ = _counted("__ge__")
    __eq__ = _counted("__eq__")
    __ne__ = _counted("__ne__")
    __hash__ = int.__hash__


@pytest.fixture
def tally(monkeypatch):
    """Counts the reference register's happened-before calls and
    ``CountedInt`` comparisons."""
    tally = Tally()
    monkeypatch.setattr(CountedInt, "tally", tally)

    def counting(left, right):
        tally.comparisons += 1
        return happened_before(left, right)

    monkeypatch.setattr(reference_module, "happened_before", counting)
    return tally


def assignment(client, counter, value="v", index=0):
    return Operation(
        "obj", (), value, "mvregister", OpClock(client, CountedInt(counter)), op_index=index
    )


def history(writers):
    """One assignment from each of ``writers`` distinct clients."""
    return [assignment(f"client{n}", 1) for n in range(writers)]


def probe(writers):
    """A batch touching existing writers (overwrite, equal clock, stale) and new ones."""
    batch = []
    for n in range(8):
        batch.append(assignment(f"client{n}", 2))  # overwrites
        batch.append(assignment(f"client{n}", 2, index=1))  # equal clock, joins
        batch.append(assignment(f"client{n}", 1, index=1))  # stale, dropped
        batch.append(assignment(f"fresh{writers}-{n}", 1))  # a new writer
    return batch


def probe_cost(tally, writers):
    store = CRDTStore()
    store.apply(history(writers))
    before = tally.comparisons
    store.apply(probe(writers))
    return tally.comparisons - before


def test_distinct_writers_cost_linear_comparisons(tally):
    writers = 256
    store = CRDTStore()
    store.apply(history(writers))
    store.apply([assignment(f"client{n}", 2) for n in range(writers)])
    assert len(store.read("obj")) == writers
    # 2 x 256 assignments; the linear scan makes ~98 000 pairwise compares here.
    assert tally.comparisons <= 2 * (2 * writers)


def test_apply_cost_at_4x_history_is_within_a_constant_of_1x(tally):
    at_1x = probe_cost(tally, 128)
    at_4x = probe_cost(tally, 512)
    assert 0 < at_1x <= 2 * len(probe(128))
    assert at_4x <= 2 * at_1x


def test_the_counter_sees_the_linear_scan(tally):
    """The tally is not blind: the reference register is quadratic under it."""
    register = LinearScanRegister()
    for operation in history(64):
        register.apply(operation.value, operation.clock, operation.op_id)
    assert tally.comparisons >= 64 * 63 // 2
