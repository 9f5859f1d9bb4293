"""Deterministic RTT estimation and adaptive deadlines.

The classic Jacobson/Karels estimator (as used by TCP's RTO): an EWMA
of the smoothed round-trip time (``srtt``) and its mean deviation
(``rttvar``), turned into a deadline ``srtt + K * rttvar`` with capped
exponential backoff across retry attempts. Berger et al.'s BFT
simulation studies show realistic timeout modeling is what makes
simulated fault numbers transfer; fixed 3-second timeouts either burn
seconds per crashed organization or fire spuriously under load.

Jitter decorrelates retries across clients (so a timed-out cohort does
not re-solicit in lockstep) and is drawn from the seeded RNG stream
the caller passes in — the estimator itself holds no randomness.
"""

from __future__ import annotations

import random
from typing import Optional

# Deadline = clamp(srtt + RTTVAR_MULT * rttvar) * backoff^attempt,
# capped, plus uniform jitter in [0, JITTER * deadline).
INITIAL_TIMEOUT = 1.0  # before any RTT sample lands
MIN_TIMEOUT = 0.2
MAX_TIMEOUT = 8.0
RTTVAR_MULT = 4.0  # Jacobson/Karels' K
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 8.0  # max multiplier over the base deadline
JITTER = 0.1  # fraction of the deadline, seeded-RNG drawn
# Upper bound on any single adaptive deadline (jitter included).
WORST_CASE_TIMEOUT = MAX_TIMEOUT * (1.0 + JITTER)


class RttEstimator:
    """EWMA srtt/rttvar over observed round-trips -> per-attempt deadlines."""

    # TCP's standard gains: alpha = 1/8 for srtt, beta = 1/4 for rttvar.
    ALPHA = 0.125
    BETA = 0.25

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.samples = 0

    def observe(self, rtt: float) -> None:
        """Feed one measured round-trip (request send to response arrival)."""
        if rtt < 0:
            return
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(self.srtt - rtt)
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        self.samples += 1

    def base_deadline(self) -> float:
        """The attempt-0 deadline: clamp(srtt + K * rttvar)."""
        if self.srtt is None:
            return INITIAL_TIMEOUT
        raw = self.srtt + RTTVAR_MULT * self.rttvar
        return min(MAX_TIMEOUT, max(MIN_TIMEOUT, raw))

    def timeout_for(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Deadline for retry ``attempt`` (0-based), backoff and jitter applied.

        Always <= ``WORST_CASE_TIMEOUT`` so the liveness oracle can
        bound how long a transaction may legitimately stay pending.
        """
        backoff = min(BACKOFF_FACTOR ** attempt, BACKOFF_CAP)
        deadline = min(MAX_TIMEOUT, self.base_deadline() * backoff)
        if rng is not None:
            deadline += deadline * JITTER * rng.random()
        return deadline


__all__ = ["RttEstimator", "WORST_CASE_TIMEOUT"]
