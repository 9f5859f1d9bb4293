"""The resilience constants satisfy the invariants the layer relies on."""

import pytest

from repro.core.client import HEDGE
from repro.resilience import WORST_CASE_TIMEOUT, RttEstimator
from repro.resilience.breaker import BREAKER_COOLDOWN, BREAKER_PROBES, BREAKER_THRESHOLD
from repro.resilience.rtt import (
    BACKOFF_CAP,
    BACKOFF_FACTOR,
    INITIAL_TIMEOUT,
    JITTER,
    MAX_TIMEOUT,
    MIN_TIMEOUT,
)


class _MaxDraw:
    """An rng that always draws 1.0, the supremum of ``random()``: the
    largest jitter."""

    def random(self):
        return 1.0


class TestValidation:
    # The knobs became constants, so nothing is left to reject a value;
    # each row holds the invariant the knob validation enforced, on the
    # constant that replaced the knob.
    def test_defaults_are_valid(self):
        assert MIN_TIMEOUT <= INITIAL_TIMEOUT <= MAX_TIMEOUT

    def test_inverted_timeout_window_rejected(self):
        assert MIN_TIMEOUT <= MAX_TIMEOUT

    def test_nonpositive_min_timeout_rejected(self):
        assert MIN_TIMEOUT > 0

    def test_initial_timeout_outside_window_rejected(self):
        assert MIN_TIMEOUT <= INITIAL_TIMEOUT
        assert INITIAL_TIMEOUT <= MAX_TIMEOUT

    def test_backoff_below_one_rejected(self):
        # A backoff below one would shorten a retry's deadline.
        assert BACKOFF_FACTOR >= 1.0
        assert BACKOFF_CAP >= 1.0

    def test_jitter_range(self):
        assert 0.0 <= JITTER < 1.0

    def test_negative_hedge_rejected(self):
        # The hedge adds organizations to a request, never removes them.
        assert HEDGE >= 0

    def test_breaker_knobs_validated(self):
        assert BREAKER_THRESHOLD >= 1 and BREAKER_PROBES >= 1
        assert BREAKER_COOLDOWN >= 0


class TestWorstCase:
    def test_worst_case_bounds_every_deadline(self):
        assert WORST_CASE_TIMEOUT == MAX_TIMEOUT * (1.0 + JITTER)
        est = RttEstimator()
        est.observe(100.0)
        for attempt in range(6):
            assert est.timeout_for(attempt, _MaxDraw()) == pytest.approx(WORST_CASE_TIMEOUT)
