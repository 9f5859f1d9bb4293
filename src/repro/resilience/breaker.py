"""Per-organization circuit breaker: closed -> open -> half-open.

Generalizes the client's permanent ``blacklist`` (Figure 8(b)'s
avoidance) into a *recoverable* health model: an organization that
stops answering (crashed, partitioned away, Byzantine-dropping) is
opened after ``BREAKER_THRESHOLD`` consecutive failures and skipped by
organization selection; after ``BREAKER_COOLDOWN`` simulated seconds
the breaker admits ``BREAKER_PROBES`` trial requests (half-open), and
one success closes it again — so organizations that heal after a
partition get traffic back instead of being shunned forever.

The breaker is pure bookkeeping: no randomness, no event scheduling;
state transitions are driven by the client's own observations. An
optional transition callback lets the observability layer record
``breaker/transition`` instants without changing behavior.
"""

from __future__ import annotations

from typing import Callable, Optional

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

BREAKER_THRESHOLD = 3  # consecutive failures to open
BREAKER_COOLDOWN = 10.0  # open -> half-open after this long
BREAKER_PROBES = 1  # concurrent trial requests in half-open

# on_transition(org_id, old_state, new_state) -> None
TransitionHook = Callable[[str, str, str], None]


class CircuitBreaker:
    """Health state for one client's view of one organization."""

    def __init__(
        self,
        org_id: str,
        clock: Callable[[], float],
        on_transition: Optional[TransitionHook] = None,
    ) -> None:
        self.org_id = org_id
        self._clock = clock
        self._on_transition = on_transition
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self._probes_in_flight = 0

    def _transition(self, new_state: str) -> None:
        if new_state == self.state:
            return
        old_state, self.state = self.state, new_state
        if self._on_transition is not None:
            self._on_transition(self.org_id, old_state, new_state)

    # -- selection-side API --------------------------------------------

    def allows_request(self) -> bool:
        """May the client target this organization right now?

        Open breakers reject until the cooldown elapses, then move to
        half-open and admit up to ``BREAKER_PROBES`` concurrent trial
        requests.
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if self.opened_at is not None and self._clock() - self.opened_at >= BREAKER_COOLDOWN:
                self._transition(BREAKER_HALF_OPEN)
                self._probes_in_flight = 0
            else:
                return False
        # Half-open: admit a bounded number of probes.
        return self._probes_in_flight < BREAKER_PROBES

    def record_sent(self) -> None:
        """The client targeted this organization (counts half-open probes)."""
        if self.state == BREAKER_HALF_OPEN:
            self._probes_in_flight += 1

    # -- outcome-side API ----------------------------------------------

    def record_success(self) -> None:
        """A response arrived; the organization is healthy again."""
        self.consecutive_failures = 0
        self._probes_in_flight = 0
        self.opened_at = None
        self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        """A request to this organization timed out (or disagreed)."""
        if self.state == BREAKER_HALF_OPEN:
            # A failed probe re-opens immediately and restarts cooldown.
            self.opened_at = self._clock()
            self._probes_in_flight = 0
            self._transition(BREAKER_OPEN)
            return
        self.consecutive_failures += 1
        if self.state == BREAKER_CLOSED and self.consecutive_failures >= BREAKER_THRESHOLD:
            self.opened_at = self._clock()
            self._transition(BREAKER_OPEN)


__all__ = ["CircuitBreaker", "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN"]
