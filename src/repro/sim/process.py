"""Generator-based simulated processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects. Yielding an event suspends the process until the event
triggers; the ``yield`` expression evaluates to the event's value.
Returning from the generator completes the process; a process is itself
an event whose value is the generator's return value, so processes can
wait on each other.

Event-loop contract (see ``repro.sim.core``): a process advances only
inside scheduled callbacks, so interleaving between processes is fully
determined by the simulator's ``(time, sequence)`` order — there is no
preemption between two yields. It runs to its next *block*: a yield of
an already-triggered event, with nothing else pending at that instant,
continues in place (the tail-run rule). Instrumentation inside a process
(span emission around a ``yield``) therefore observes exact phase
boundaries; it must remain passive (no RNG draws, no extra yields) to
preserve the determinism guarantee the observability layer depends on.
"""

from __future__ import annotations

import traceback
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:
    from repro.sim.core import Simulator


class Process(Event):
    """A running simulated process (also an event: "process finished")."""

    __slots__ = ("_generator", "name")

    def __init__(self, sim: "Simulator", generator: Generator[Any, Any, Any], name: str = "") -> None:
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        sim.schedule(0.0, self._step)

    def _step(self, event: Optional[Event] = None) -> None:
        """Run to the next block; ``event`` is the wait that just ended."""
        send = self._generator.send
        while True:
            try:
                target = send(None if event is None else event.value)
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
            if not (target.triggered and self._sim._skip_hop()):
                target.add_callback(self._step)
                return
            event = target  # tail-run: the wake would be the very next pop


__all__ = ["Process"]
