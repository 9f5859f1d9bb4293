"""Tests for the discrete-event simulator core."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    order = []
    for name in "abc":
        sim.schedule(1.0, lambda n=name: order.append(n))
    sim.run()
    assert order == ["a", "b", "c"]


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.schedule(4.25, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5, 4.25]
    assert sim.now == 4.25


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1))
    sim.schedule(10.0, lambda: seen.append(10))
    sim.run(until=5.0)
    assert seen == [1]
    assert sim.now == 5.0
    assert sim.pending_events() == 1


def test_run_until_advances_clock_when_queue_drains_early():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(1.0, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(7.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.0]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(1.0, lambda: seen.append(sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == [2.0]


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(0.0, reenter)
    sim.run()


def test_schedule_rejects_nan_delay():
    sim = Simulator()
    with pytest.raises(ValueError, match="finite"):
        sim.schedule(float("nan"), lambda: None)


def test_schedule_rejects_infinite_delay():
    sim = Simulator()
    with pytest.raises(ValueError, match="finite"):
        sim.schedule(float("inf"), lambda: None)
    with pytest.raises(ValueError, match="finite"):
        sim.schedule(float("-inf"), lambda: None)


def test_schedule_at_rejects_non_finite_time():
    sim = Simulator()
    with pytest.raises(ValueError, match="finite"):
        sim.schedule_at(float("nan"), lambda: None)
    with pytest.raises(ValueError, match="finite"):
        sim.schedule_at(float("inf"), lambda: None)
    with pytest.raises(ValueError, match="finite"):
        sim.schedule_at(float("-inf"), lambda: None)


def test_processed_events_counts_heap_pops():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.schedule(10.0, lambda: None)
    sim.run(until=5.0)
    assert sim.processed_events == 5
    sim.run()
    assert sim.processed_events == 6


def test_processed_events_does_not_count_tail_run_wakes():
    # Heap pops, not callbacks: the lone waiter a timeout wakes in place
    # (the tail-run rule) runs without an entry of its own.
    sim = Simulator()
    woken = []

    def waiter():
        woken.append((yield sim.timeout(1.0, "done")))

    sim.process(waiter())
    sim.run()
    assert woken == ["done"]
    assert sim.processed_events == 2  # process start + the timeout


def test_schedule_passes_the_optional_argument():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "later")
    sim.schedule_at(0.5, seen.append, None)  # None is an argument, not "no argument"
    sim.schedule(2.0, lambda: seen.append("bare"))
    sim.run()
    assert seen == [None, "later", "bare"]


def test_run_rejects_nan_until():
    # ``when > nan`` is never true: a NaN bound used to run the queue dry.
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1))
    with pytest.raises(ValueError, match="NaN"):
        sim.run(until=float("nan"))
    assert seen == [] and sim.now == 0.0
    sim.run()  # the rejected call left the simulator runnable
    assert seen == [1]


def test_run_until_infinity_drains_the_queue():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    sim.run(until=float("inf"))
    assert sim.pending_events() == 0
    assert sim.now == float("inf")
