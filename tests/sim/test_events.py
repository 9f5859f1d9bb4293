"""Tests for events, timeouts, and AnyOf."""

import pytest

from repro.sim import AnyOf, Event, Simulator, Timeout


def test_event_trigger_carries_value():
    sim = Simulator()
    event = Event(sim)
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    event.trigger(42)
    sim.run()
    assert seen == [42]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = Event(sim)
    event.trigger()
    with pytest.raises(RuntimeError):
        event.trigger()


def test_callback_on_already_triggered_event_fires():
    sim = Simulator()
    event = Event(sim)
    event.trigger("late")
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["late"]


def test_timeout_triggers_at_deadline():
    sim = Simulator()
    timeout = Timeout(sim, 3.0, "done")
    seen = []
    timeout.add_callback(lambda e: seen.append((sim.now, e.value)))
    sim.run()
    assert seen == [(3.0, "done")]


def test_anyof_returns_winning_event():
    sim = Simulator()
    fast = Timeout(sim, 1.0, "fast")
    slow = Timeout(sim, 2.0, "slow")
    any_of = AnyOf(sim, [slow, fast])
    winners = []
    any_of.add_callback(lambda e: winners.append(e.value))
    sim.run()
    assert winners == [fast]


def test_anyof_requires_events():
    with pytest.raises(ValueError):
        AnyOf(Simulator(), [])
