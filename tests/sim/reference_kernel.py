"""The retired event kernel, kept as the differential oracle — not product code.

This is ``repro.sim`` as it stood before the tail-run rule (ISSUE 16):
``Simulator``, ``Event``, ``Timeout``, ``AnyOf``, ``Process``
and ``Resource`` verbatim, gathered into one module (only the imports
between them are gone). Every wake goes through the heap here — an
uncontended ``Resource.serve`` costs three heap round-trips — which
makes it the execution-order oracle ``test_kernel_differential.py``
holds the one-entry-per-wait kernel to.
"""

from __future__ import annotations

import heapq
import itertools
import math
import traceback
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError


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
        self._now = 0.0
        self._heap: list[tuple[float, Any, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._running = False
        # Optional same-time tie permutation (schedule exploration, see
        # ``repro.sim.nondeterminism``): when set, each scheduled event
        # gets a drawn priority and same-time events run in priority
        # order instead of scheduling order. None keeps the plain
        # sequence key — the historical, golden-seed-pinned behavior.
        self._tie_breaker: Optional[Callable[[], int]] = None
        # Cumulative count of executed callbacks; the perf harness
        # divides this by wall time to get events/sec.
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

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds.

        ``delay`` must be finite and non-negative. A NaN or infinite
        delay would silently corrupt the event heap's ordering (NaN
        compares false against everything), so both are rejected here
        rather than surfacing as a confusing mis-ordering later.
        """
        if not math.isfinite(delay):
            raise ValueError(f"delay must be finite, got {delay!r}")
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, self._order_key(), callback))

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulated time ``when``.

        ``when`` must be finite and not in the past; NaN/infinity are
        rejected for the same heap-ordering reason as in ``schedule``.
        """
        if not math.isfinite(when):
            raise ValueError(f"scheduled time must be finite, got {when!r}")
        if when < self._now:
            raise ValueError(f"cannot schedule in the past (when={when}, now={self._now})")
        heapq.heappush(self._heap, (when, self._order_key(), callback))

    def _order_key(self):
        """Within-instant ordering key for the next scheduled event.

        A bare sequence number normally (events at one instant run in
        scheduling order); under an installed tie breaker, a drawn
        priority first and the sequence only as the final tie-break.
        """
        if self._tie_breaker is None:
            return next(self._seq)
        return (self._tie_breaker(), next(self._seq))

    def timeout(self, delay: float, value: Any = None) -> "Event":
        """Return an event that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def event(self) -> "Event":
        """Return a fresh, untriggered event."""
        return Event(self)

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> "Process":
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the queue drains earlier, so periodic
        measurements can rely on the final time.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        # The loop is the simulator's innermost hot path: heap and
        # heappop are bound locally and the unbounded case pops
        # directly (no peek). ``processed_events`` must advance before
        # each callback runs — callbacks may read it live.
        heap = self._heap
        heappop = heapq.heappop
        try:
            if until is None:
                while heap:
                    when, _, callback = heappop(heap)
                    self._now = when
                    self.processed_events += 1
                    callback()
            else:
                while heap:
                    when = heap[0][0]
                    if when > until:
                        break
                    when, _, callback = heappop(heap)
                    self._now = when
                    self.processed_events += 1
                    callback()
                if until > self._now:
                    self._now = until
        finally:
            self._running = False

    def pending_events(self) -> int:
        """Number of scheduled-but-unprocessed callbacks."""
        return len(self._heap)


class Event:
    """A one-shot event that processes can wait on.

    Callbacks registered after the event has already triggered are
    scheduled to run immediately (at the current simulated time), so a
    process never deadlocks by waiting on a completed event.
    """

    __slots__ = ("_sim", "_callbacks", "triggered", "value")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._callbacks: list[Callable[[Event], None]] = []
        self.triggered = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> "Event":
        """Fire the event, waking every waiter."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._sim.schedule(0.0, lambda cb=callback: cb(self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(event)`` once the event has triggered."""
        if self.triggered:
            self._sim.schedule(0.0, lambda: callback(self))
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        super().__init__(sim)
        self.delay = delay
        sim.schedule(delay, lambda: self.trigger(value))


class AnyOf(Event):
    """Triggers when the first of several events triggers.

    The value is the *winning event object*, so the waiter can
    distinguish (for example) a reply from a timeout::

        winner = yield AnyOf(sim, [reply, sim.timeout(5.0)])
        if winner is reply: ...
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if not self.triggered:
            self.trigger(event)


class Process(Event):
    """A running simulated process (also an event: "process finished")."""

    __slots__ = ("_generator", "name")

    def __init__(self, sim: "Simulator", generator: Generator[Any, Any, Any], name: str = "") -> None:
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        sim.schedule(0.0, lambda: self._step(None))

    def _step(self, send_value: Any) -> None:
        try:
            target = self._generator.send(send_value)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - surfaced with context
            raise SimulationError(
                f"process {self.name!r} raised {type(exc).__name__}: {exc}\n"
                + "".join(traceback.format_exception(exc))
            ) from exc
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}; processes must yield Event objects"
            )
        target.add_callback(self._on_target)

    def _on_target(self, event: Event) -> None:
        self._step(event.value)


class Resource:
    """A FIFO resource with a fixed number of slots.

    Usage inside a process::

        request = resource.request()
        yield request
        yield sim.timeout(service_time)
        resource.release(request)

    or the one-liner ``yield from resource.serve(service_time)``.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._sim = sim
        self.capacity = capacity
        # Service-time multiplier for fault injection (slow-node CPU
        # degradation): ``serve`` and callers that inline the
        # request/timeout/release pattern scale durations by this.
        # Changing it affects only services that start afterwards.
        self.slowdown = 1.0
        self._in_use = 0
        self._queue: deque[Event] = deque()
        # Utilization accounting: integral of in_use over time.
        self._busy_time = 0.0
        self._last_change = sim.now

    def _account(self) -> None:
        now = self._sim.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def busy_seconds(self) -> float:
        """Accumulated slot-seconds of service up to the current time.

        Monotone non-decreasing; samplers window utilization by taking
        deltas of this value (``repro.obs.sampler``). Reading it only
        folds elapsed time into the accounting — no events, no state
        visible to waiters.
        """
        self._account()
        return self._busy_time

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of capacity busy over [since, now]."""
        self._account()
        elapsed = self._sim.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_time / (self.capacity * elapsed))

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Event:
        """Ask for a slot; the returned event triggers when granted."""
        event = Event(self._sim)
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            event.trigger(self)
        else:
            self._queue.append(event)
        return event

    def release(self, request: Event) -> None:
        """Give back a slot obtained through ``request``."""
        if not request.triggered:
            # The request was never granted; cancel it instead.
            try:
                self._queue.remove(request)
            except ValueError:
                raise RuntimeError("releasing a request that was never made") from None
            return
        if self._queue:
            # The slot passes directly to the next waiter: occupancy is
            # unchanged, so no accounting boundary is needed.
            waiter = self._queue.popleft()
            waiter.trigger(self)
        else:
            self._account()
            self._in_use -= 1

    def service_time(self, duration: float) -> float:
        """``duration`` scaled by the current slowdown factor."""
        return duration * self.slowdown

    def serve(self, duration: float) -> Generator[Event, Any, None]:
        """Acquire a slot, hold it for ``duration`` (x slowdown), release it."""
        request = self.request()
        yield request
        try:
            yield self._sim.timeout(duration * self.slowdown)
        finally:
            self.release(request)
