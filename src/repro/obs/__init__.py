"""``repro.obs`` — opt-in observability for the simulated stack.

Three layers, per docs/OBSERVABILITY.md:

* **transaction lifecycle tracing** — spans with sim-timestamps for
  every protocol phase, collected by
  :class:`~repro.obs.trace.TraceCollector` and exportable to the
  ``chrome://tracing`` JSON format (:mod:`repro.obs.chrome`);
* **node time-series metrics** — periodic per-node CPU utilization,
  queue depths, and network in-flight counts
  (:class:`~repro.obs.sampler.NodeSampler`);
* **profiling hooks** — the :class:`~repro.obs.recorder.Recorder`
  protocol: anything implementing it can be set as a run's
  ``net.recorder.trace`` (and ``net.network.tracer``), so benchmarks
  attach collectors without touching protocol code.

One sink per fact: protocol components never hold a recorder of their
own. Phases and transaction outcomes are reported once, to the run's
:class:`~repro.core.recording.TransactionRecorder`, which also emits
the matching span or instants when its ``trace`` is set; components
send their detail spans through that same ``trace``. The network sits
below the recorder and holds the one other sink (``Network.tracer``).
Both default to ``None``, so an untraced run pays one attribute check
per emission site. Recorders are *passive* — they never perturb
simulated results (see ``repro.sim.core`` and
``tests/obs/test_determinism.py``).

Typical use::

    from repro.obs import Observability

    obs = Observability(trace=True, sample_interval=0.5)
    net = OrderlessChainNetwork(config)
    net.add_clients(4)
    net.attach_observability(obs)
    net.run(until=30.0)

    from repro.obs.chrome import write_chrome_trace
    write_chrome_trace(obs.trace, "trace.json")   # load in chrome://tracing

The Table-3-style breakdown is ``result.phase_means_ms`` of a
``run_experiment`` result; every phase in it is also a span of the
trace.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.recorder import Recorder
from repro.obs.sampler import NodeSampler
from repro.obs.trace import Instant, Sample, Span, TraceCollector


class Observability:
    """Bundles a trace collector and a node sampler for one run.

    The collector always exists and holds whatever the run records:
    ``trace=True`` makes it the run's span/instant sink
    (:attr:`recorder`; ``None`` otherwise, so an untraced run makes no
    span calls), and a positive ``sample_interval`` makes the node
    sampler write its gauge readings into it.
    """

    def __init__(self, trace: bool = True, sample_interval: float = 0.0) -> None:
        self.trace = TraceCollector()
        self.recorder: Optional[TraceCollector] = self.trace if trace else None
        self.sample_interval = sample_interval
        self.sampler: Optional[NodeSampler] = None

    def bind(self, sim) -> Optional[NodeSampler]:
        """Create (once) and return the sampler for ``sim``.

        Called by a network's ``attach_observability``; returns ``None``
        when sampling is disabled. The sampler is started by the caller
        after registering its probes.
        """
        if self.sample_interval > 0 and self.sampler is None:
            self.sampler = NodeSampler(sim, self.trace, self.sample_interval)
        return self.sampler

    def detach(self) -> "Observability":
        """Disconnect from the simulation, keeping the collected data.

        The sampler holds references to the simulator and its networks
        (including live generator objects), which cannot cross a
        process boundary; dropping it makes the bundle picklable so a
        parallel sweep worker can ship results back to the parent. The
        trace collector — all recorded spans, instants, and samples —
        is untouched.
        """
        self.sampler = None
        return self


__all__ = [
    "Instant",
    "NodeSampler",
    "Observability",
    "Recorder",
    "Sample",
    "Span",
    "TraceCollector",
]
