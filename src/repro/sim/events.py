"""Synchronization primitives for simulated processes.

An :class:`Event` is a one-shot signal carrying an optional value.
Processes wait on events by yielding them; when the event triggers, the
process resumes and the ``yield`` expression evaluates to the event's
value.

Event-loop contract (see ``repro.sim.core``): trigger callbacks are
scheduled, so waiters resume through the simulator's deterministic
``(time, sequence)`` order; only a :class:`Timeout` (and a resource's
``Service``) calls a lone waiter in place, when that is the very order
the heap would produce (the tail-run rule). Multiple waiters on one
event wake in registration order. None of these primitives draw
randomness; observability hooks
may inspect ``triggered``/``value`` freely but must not call
:meth:`Event.trigger` themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:
    from repro.sim.core import Simulator


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
            self._sim.schedule(0.0, callback, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(event)`` once the event has triggered."""
        if self.triggered:
            self._sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        super().__init__(sim)
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        """The timeout's one heap entry; a lone waiter is tail-run."""
        waiters = self._callbacks
        if len(waiters) == 1 and self._sim._skip_hop():
            self._callbacks = []
            self.trigger(value)
            waiters[0](self)
        else:
            self.trigger(value)


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


__all__ = ["Event", "Timeout", "AnyOf"]
