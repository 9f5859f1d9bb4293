"""Unit tests of the per-organization circuit breaker state machine."""

from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.resilience.breaker import BREAKER_COOLDOWN, BREAKER_PROBES, BREAKER_THRESHOLD


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make(clock=None, transitions=None):
    hook = None
    if transitions is not None:
        hook = lambda org, old, new: transitions.append((old, new))
    return CircuitBreaker("org0", clock=clock or FakeClock(), on_transition=hook)


def trip(breaker):
    """Open a closed breaker: BREAKER_THRESHOLD consecutive failures."""
    for _ in range(BREAKER_THRESHOLD):
        breaker.record_failure()


class TestClosedToOpen:
    def test_opens_at_threshold_consecutive_failures(self):
        assert BREAKER_THRESHOLD == 3
        breaker = make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allows_request()

    def test_success_resets_the_failure_streak(self):
        breaker = make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED  # streak broken at 2

    def test_transition_hook_fires(self):
        transitions = []
        breaker = make(transitions=transitions)
        trip(breaker)
        assert transitions == [(BREAKER_CLOSED, BREAKER_OPEN)]


class TestCooldownAndHalfOpen:
    def test_open_rejects_until_cooldown_elapses(self):
        clock = FakeClock()
        breaker = make(clock=clock)
        trip(breaker)
        clock.now = BREAKER_COOLDOWN - 0.1
        assert not breaker.allows_request()
        clock.now = BREAKER_COOLDOWN
        assert breaker.allows_request()
        assert breaker.state == BREAKER_HALF_OPEN

    def test_half_open_admits_bounded_probes(self):
        clock = FakeClock()
        breaker = make(clock=clock)
        trip(breaker)
        clock.now = BREAKER_COOLDOWN
        for _ in range(BREAKER_PROBES):
            assert breaker.allows_request()
            breaker.record_sent()
        assert not breaker.allows_request()  # probe budget exhausted

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = make(clock=clock)
        trip(breaker)
        clock.now = BREAKER_COOLDOWN
        assert breaker.allows_request()
        breaker.record_sent()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allows_request()

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = make(clock=clock)
        trip(breaker)  # opened at t=0
        clock.now = BREAKER_COOLDOWN
        assert breaker.allows_request()  # half-open
        breaker.record_sent()
        breaker.record_failure()  # probe failed: re-open at t=cooldown
        assert breaker.state == BREAKER_OPEN
        clock.now = 2 * BREAKER_COOLDOWN - 0.1
        assert not breaker.allows_request()
        clock.now = 2 * BREAKER_COOLDOWN
        assert breaker.allows_request()

    def test_full_cycle_transitions_recorded(self):
        clock = FakeClock()
        transitions = []
        breaker = make(clock=clock, transitions=transitions)
        trip(breaker)
        clock.now = BREAKER_COOLDOWN
        breaker.allows_request()
        breaker.record_sent()
        breaker.record_success()
        assert transitions == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]
