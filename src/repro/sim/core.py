"""The discrete-event simulator core.

The simulator is a priority queue of ``(time, sequence, callback,
arg)`` entries. Time is a float in seconds. The ``sequence`` counter
breaks ties so that events scheduled earlier run earlier, which makes
runs fully deterministic for a fixed seed.

Event-loop contract
-------------------

Everything built on this kernel — the protocol stack, the baselines,
and the observability layer — relies on these guarantees:

* **Determinism.** Callbacks run in strictly increasing ``(time,
  sequence)`` order. Two events at the same simulated time run in the
  order they were scheduled. There is no wall-clock anywhere: given the
  same seed and the same sequence of ``schedule`` calls, a run is
  bit-for-bit reproducible. Schedule exploration
  (``repro.sim.nondeterminism``) may install a *tie breaker* that
  permutes same-time ties via seeded priorities — the permutation is
  itself a pure function of the explore profile, so every explored
  interleaving remains exactly replayable.
* **Tail-run: one heap entry per wait.** A zero-delay entry takes the
  largest sequence so far, so when nothing else is pending at the
  current instant it *would* be the very next pop. Where that push
  would be the last act of a popped callback — a ``Timeout`` firing
  with a single waiter, a ``Process`` yielding an already-triggered
  event, a ``Service`` granted on request or ending with its waiter —
  the hop is run in place instead (``_skip_hop``), which is the same
  execution order with one heap entry per wait. Several waiters,
  anything else pending at ``now``, ``Event.trigger`` called
  mid-callback, a ``Service`` hand-off and process start go through
  the heap. It holds under a tie breaker too: a lone event has no tie
  to permute, and its priority is still drawn so later draws line up.
  ``tests/sim/test_kernel_differential.py`` checks the order against
  the retired all-heap kernel. ``processed_events`` counts heap pops,
  so events/s figures recorded before this rule (the retired
  ``perfbench`` tables in docs/PERFORMANCE.md) are not comparable.
* **``now`` is a plain attribute.** Anything may read
  ``Simulator.now``; only the loop in ``run`` writes it.
* **Seeded randomness only.** The kernel itself draws no randomness.
  All stochastic behaviour flows through named streams from
  ``repro.sim.rng.RngRegistry``; a component must never share another
  component's stream, so adding draws to one stream cannot perturb
  another.
* **Passive observation.** Hooks that *observe* a run (the
  ``repro.obs`` recorders and samplers) must not draw randomness, must
  not mutate protocol state, and may only add their own callbacks
  (e.g. periodic sampling). Extra callbacks consume sequence numbers,
  which shifts the absolute ``sequence`` values of later events but
  never their *relative* order — so protocol behaviour, RNG streams,
  and therefore ledger state are identical with and without
  observation. ``tests/obs/test_determinism.py`` asserts this
  byte-for-byte.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.process import Process

# "No argument": ``schedule(delay, callback)`` runs ``callback()``.
_NO_ARG: Any = object()
_INF = math.inf


class Simulator:
    """A deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> ticks = []
        >>> def clock():
        ...     while sim.now < 3:
        ...         ticks.append(sim.now)
        ...         yield sim.timeout(1.0)
        >>> _ = sim.process(clock())
        >>> sim.run()
        >>> ticks
        [0.0, 1.0, 2.0]
    """

    def __init__(self) -> None:
        # Current simulated time in seconds. A plain attribute, read
        # everywhere and written only by ``run``.
        self.now = 0.0
        self._heap: list[tuple[float, Any, Callable[..., None], Any]] = []
        self._seq = 0
        self._running = False
        # Optional same-time tie permutation (schedule exploration, see
        # ``repro.sim.nondeterminism``): when set, each scheduled event
        # gets a drawn priority and same-time events run in priority
        # order instead of scheduling order. None keeps the plain
        # sequence key — the historical, golden-seed-pinned behavior.
        self._tie_breaker: Optional[Callable[[], int]] = None
        # Cumulative count of heap pops (benchmarks/chainbench's event
        # kernel and tests/sim/test_events_per_wait.py read it).
        self.processed_events = 0

    def install_tie_breaker(self, tie_breaker: Callable[[], int]) -> None:
        """Permute same-time event ties via drawn priorities.

        Heap keys must be homogeneous (plain sequence numbers vs
        ``(priority, sequence)`` tuples never compare against each
        other), so the breaker can only be installed on a pristine
        simulator — before anything has been scheduled or run.
        """
        if self._heap or self.processed_events:
            raise SimulationError(
                "tie breaker must be installed before any event is scheduled"
            )
        self._tie_breaker = tie_breaker

    def schedule(self, delay: float, callback: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``callback()`` — or ``callback(arg)`` — after ``delay`` seconds.

        ``delay`` must be finite and non-negative. A NaN or infinite
        delay would silently corrupt the event heap's ordering (NaN
        compares false against everything), so both are rejected here
        rather than surfacing as a confusing mis-ordering later.
        """
        if not 0.0 <= delay < _INF:
            if not math.isfinite(delay):
                raise ValueError(f"delay must be finite, got {delay!r}")
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seq = key = self._seq + 1
        if self._tie_breaker is not None:
            key = (self._tie_breaker(), key)
        heappush(self._heap, (self.now + delay, key, callback, arg))

    def schedule_at(self, when: float, callback: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run ``callback()`` — or ``callback(arg)`` — at absolute time ``when``.

        ``when`` must be finite and not in the past; NaN/infinity are
        rejected for the same heap-ordering reason as in ``schedule``.
        """
        if not self.now <= when < _INF:
            if not math.isfinite(when):
                raise ValueError(f"scheduled time must be finite, got {when!r}")
            raise ValueError(f"cannot schedule in the past (when={when}, now={self.now})")
        self._seq = key = self._seq + 1
        if self._tie_breaker is not None:
            key = (self._tie_breaker(), key)
        heappush(self._heap, (when, key, callback, arg))

    def _skip_hop(self) -> bool:
        """Tail-run: may a zero-delay hop run in place, being the next pop?

        If so the skipped entry's tie-breaker priority is drawn and
        dropped here, so later draws match the all-heap schedule.
        """
        heap = self._heap
        if heap and heap[0][0] <= self.now:
            return False
        if self._tie_breaker is not None:
            self._tie_breaker()
        return True

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Return a fresh, untriggered event."""
        return Event(self)

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the queue drains earlier, so periodic
        measurements can rely on the final time. ``until`` may be
        ``+inf`` but not NaN, which no event time ever exceeds.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        limit = _INF if until is None else until
        if math.isnan(limit):
            raise ValueError(f"until must not be NaN, got {until!r}")
        self._running = True
        # The loop is the simulator's innermost hot path: the heap is
        # bound locally and a missing ``until`` is an infinite limit, so
        # one loop with one ``heappop`` serves both cases (chainbench
        # counts ``sim.events`` on that edge). ``processed_events`` must
        # advance before each callback runs — callbacks may read it live.
        heap = self._heap
        try:
            while heap and heap[0][0] <= limit:
                self.now, _, callback, arg = heappop(heap)
                self.processed_events += 1
                if arg is _NO_ARG:
                    callback()
                else:
                    callback(arg)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def pending_events(self) -> int:
        """Number of scheduled-but-unprocessed callbacks."""
        return len(self._heap)


__all__ = ["Simulator", "Event", "Process"]
