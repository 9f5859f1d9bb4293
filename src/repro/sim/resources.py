"""Finite-capacity resources for modeling contention.

A :class:`Resource` is a FIFO server with ``capacity`` slots; it models
a node's CPU (the paper's VMs have four vCPUs). A :class:`Lock` is a
capacity-one resource; it models OrderlessChain's CRDT-cache lock,
which serializes cache reads and writes (Section 9, "the cache's
locking mechanism ... due to Go language constraints").

Event-loop contract (see ``repro.sim.core`` for the full statement):
grant order is strictly FIFO and driven only by the simulator's
deterministic event order — a resource draws no randomness. An
occupancy is one :class:`Service` event; its grant, end and hand-off
hop where the retired request / timeout / release sequence did. The
accounting surface (:meth:`Resource.busy_seconds`,
:meth:`Resource.utilization`, ``in_use``, ``queue_length``) is
read-only and schedules nothing, so observability probes
(``repro.obs.sampler``) may poll it at any time without perturbing
grant order or simulated results.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.events import Event

if TYPE_CHECKING:
    from repro.sim.core import Simulator


class Service(Event):
    """One occupancy of a :class:`Resource`, an event with one waiter.

    It triggers (value None) once the slot is released; ``started_at``
    is the simulated time the slot was granted, None while queued.
    """

    __slots__ = ("_resource", "_duration", "_waiter", "started_at")

    def __init__(self, resource: "Resource", duration: float) -> None:
        self._sim = resource._sim  # no callback list: one waiter at most
        self._resource = resource
        self._duration = duration
        self._waiter: Optional[Callable[[Event], None]] = None
        self.triggered = False
        self.value = None
        self.started_at: Optional[float] = None

    def add_callback(self, callback: Callable[[Event], None]) -> None:
        if self.triggered:
            self._sim.schedule(0.0, callback, self)
        elif self._waiter is None:
            self._waiter = callback
        else:
            raise RuntimeError("a service has exactly one waiter")

    def _start(self) -> None:
        """Take the granted slot; the slowdown is read as service starts."""
        sim = self._sim
        self.started_at = sim.now
        sim.schedule(self._duration * self._resource.slowdown, self._end)

    def _end(self) -> None:
        """The service's timer; its waiter is tail-run when alone."""
        if self._waiter is None or self._sim._skip_hop():
            self._finish()
        else:
            self._sim.schedule(0.0, self._finish)

    def _finish(self) -> None:
        """Release the slot, then wake the waiter."""
        resource = self._resource
        if resource._queue:
            # The slot passes directly to the next service: occupancy is
            # unchanged, so no accounting boundary is needed.
            self._sim.schedule(0.0, resource._queue.popleft()._start)
        else:
            resource._account()
            resource._in_use -= 1
        self.triggered = True
        if self._waiter is not None:
            self._waiter(self)


class Resource:
    """A FIFO resource with a fixed number of slots.

    Usage inside a process: ``yield resource.serve(service_time)``.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._sim = sim
        self.capacity = capacity
        # Service-time multiplier for fault injection (slow-node CPU
        # degradation). Changing it affects only services that start
        # afterwards.
        self.slowdown = 1.0
        self._in_use = 0
        self._queue: deque[Service] = deque()
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
        """Number of services waiting for a slot."""
        return len(self._queue)

    def serve(self, duration: float) -> Service:
        """Occupy a slot for ``duration`` (x slowdown) once one is free."""
        service = Service(self, duration)
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            if self._sim._skip_hop():
                service._start()
            else:
                self._sim.schedule(0.0, service._start)
        else:
            self._queue.append(service)
        return service


class Lock(Resource):
    """A mutual-exclusion lock (capacity-one resource)."""

    def __init__(self, sim: "Simulator") -> None:
        super().__init__(sim, capacity=1)


__all__ = ["Resource", "Lock", "Service"]
