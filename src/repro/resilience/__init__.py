"""Adaptive resilience: RTT-aware timeouts, hedging, circuit breakers.

The layer generalizes the client's fixed timeouts and permanent
blacklist into an adaptive health model (docs/RESILIENCE.md):

* :class:`RttEstimator` — Jacobson/Karels EWMA of round-trip times
  (srtt/rttvar) turning observed endorsement/receipt latencies into
  per-attempt deadlines with capped exponential backoff and
  seeded-RNG jitter;
* :class:`CircuitBreaker` — per-organization closed → open →
  half-open health tracking, so organizations that heal after a crash
  or partition get traffic back (unlike the permanent ``blacklist``).

A client uses the layer when its run's ``ExperimentConfig.resilience``
is set; otherwise it is the paper's fixed-timeout client, with the
same event order. The parameters are constants of the module that reads
them (:mod:`repro.resilience.rtt`, :mod:`repro.resilience.breaker`,
and the hedge in :mod:`repro.core.client`).

Everything here is deterministic: the only randomness is the jitter
drawn from a named ``sim.rng`` stream owned by the caller, so
golden-seed fingerprints stay stable (docs/FAULTS.md).
"""

from repro.resilience.breaker import BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN, CircuitBreaker
from repro.resilience.rtt import WORST_CASE_TIMEOUT, RttEstimator

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "RttEstimator",
    "WORST_CASE_TIMEOUT",
]
