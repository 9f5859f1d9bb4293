"""The ``Recorder`` protocol — the pluggable profiling hook.

A run has one trace sink: its
:class:`~repro.core.recording.TransactionRecorder`'s ``trace``
attribute (plus ``Network.tracer`` for the network, which sits below
the recorder). When it is ``None`` — the default — every emission site
is a single attribute check and the observability layer costs nothing.
When a :class:`Recorder` is set there, the run reports three kinds of
facts to it:

* **spans** — a named interval of simulated time, optionally tied to a
  node and a transaction id (``orderlesschain/P1/Execution`` from
  proposal arrival to endorsement send);
* **instants** — a point event (``txn/committed``);
* **samples** — a periodic gauge/counter reading
  (``node/cpu/utilization`` at t=4.0 on ``org2``).

Recorders must be *passive*: they only read simulated time and state
handed to them, never draw randomness, schedule events, or mutate
protocol state. That contract is what keeps a traced run byte-identical
to an untraced one (see ``repro.sim.core``), and it is covered by
``tests/obs/test_determinism.py``.

Every name emitted through a recorder is documented in
``repro.obs.schema``; see ``docs/OBSERVABILITY.md`` for the full
catalogue.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, runtime_checkable


@runtime_checkable
class Recorder(Protocol):
    """What a pluggable collector must implement.

    Benchmarks attach collectors through this protocol without touching
    protocol code: anything with these three methods can be set as a
    run's ``net.recorder.trace``.
    """

    def span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        node: str = "",
        txn_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a closed interval [start, end] of simulated seconds."""
        ...

    def instant(
        self,
        name: str,
        at: float,
        *,
        node: str = "",
        txn_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a point event at simulated time ``at``."""
        ...

    def sample(self, name: str, at: float, value: float, *, node: str = "") -> None:
        """Record one reading of a gauge or cumulative counter."""
        ...


__all__ = ["Recorder"]
