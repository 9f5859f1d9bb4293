"""Unit tests of the Jacobson/Karels RTT estimator and adaptive deadlines."""

import random

import pytest

from repro.resilience import WORST_CASE_TIMEOUT, RttEstimator
from repro.resilience.rtt import (
    BACKOFF_CAP,
    BACKOFF_FACTOR,
    INITIAL_TIMEOUT,
    JITTER,
    MAX_TIMEOUT,
    MIN_TIMEOUT,
)


class TestObserve:
    def test_no_samples_uses_initial_timeout(self):
        assert RttEstimator().base_deadline() == INITIAL_TIMEOUT

    def test_first_sample_seeds_srtt_and_rttvar(self):
        est = RttEstimator()
        est.observe(0.4)
        assert est.srtt == pytest.approx(0.4)
        assert est.rttvar == pytest.approx(0.2)
        assert est.samples == 1

    def test_ewma_update_matches_jacobson_karels(self):
        est = RttEstimator()
        est.observe(0.4)
        est.observe(0.8)
        # rttvar' = 0.75*0.2 + 0.25*|0.4 - 0.8|; srtt' = 0.875*0.4 + 0.125*0.8
        assert est.rttvar == pytest.approx(0.75 * 0.2 + 0.25 * 0.4)
        assert est.srtt == pytest.approx(0.875 * 0.4 + 0.125 * 0.8)

    def test_negative_samples_ignored(self):
        est = RttEstimator()
        est.observe(-1.0)
        assert est.samples == 0
        assert est.srtt is None

    def test_stable_rtt_converges_to_tight_deadline(self):
        est = RttEstimator()
        for _ in range(50):
            est.observe(0.3)
        # rttvar decays toward zero, so the deadline approaches srtt,
        # floored by MIN_TIMEOUT — far below a fixed 3 s timeout.
        assert est.base_deadline() < 0.5


class TestClamping:
    def test_deadline_floored_at_min_timeout(self):
        est = RttEstimator()
        for _ in range(50):
            est.observe(0.001)
        assert est.base_deadline() == MIN_TIMEOUT

    def test_deadline_capped_at_max_timeout(self):
        est = RttEstimator()
        est.observe(100.0)
        assert est.base_deadline() == MAX_TIMEOUT


class TestBackoffAndJitter:
    # Without an rng, timeout_for applies backoff only.

    def test_backoff_doubles_per_attempt(self):
        assert BACKOFF_FACTOR == 2.0
        est = RttEstimator()
        est.observe(0.5)
        base = est.base_deadline()
        assert est.timeout_for(0) == pytest.approx(base)
        assert est.timeout_for(1) == pytest.approx(min(MAX_TIMEOUT, base * 2))
        assert est.timeout_for(2) == pytest.approx(min(MAX_TIMEOUT, base * 4))

    def test_backoff_capped(self):
        est = RttEstimator()
        for _ in range(50):
            est.observe(0.001)
        # Base = MIN_TIMEOUT; attempt 10 would be 1024x without the cap.
        assert est.timeout_for(10) == pytest.approx(MIN_TIMEOUT * BACKOFF_CAP)

    def test_deadline_never_exceeds_max_timeout_before_jitter(self):
        est = RttEstimator()
        est.observe(6.0)
        assert est.timeout_for(5) == pytest.approx(MAX_TIMEOUT)

    def test_jitter_bounded_and_deterministic(self):
        est = RttEstimator()
        est.observe(0.5)
        base = est.timeout_for(0)  # no rng: jitter not applied
        draws = [est.timeout_for(0, random.Random(7)) for _ in range(10)]
        # Same seeded stream state -> same jittered deadline; always
        # within [base, base * (1 + JITTER)) and below the worst case.
        assert len(set(draws)) == 1
        assert base <= draws[0] < base * (1 + JITTER)
        assert draws[0] <= WORST_CASE_TIMEOUT

    def test_distinct_rng_states_decorrelate(self):
        est = RttEstimator()
        est.observe(0.5)
        rng = random.Random(7)
        assert est.timeout_for(0, rng) != est.timeout_for(0, rng)
