"""Periodic node time-series sampling.

A :class:`NodeSampler` is a simulated process that wakes every
``interval`` simulated seconds and reads registered probes: CPU/lock
resources (utilization over the window, queue depth, slots in use),
batch-server queue depths, and network counters. Readings go to the
attached :class:`~repro.obs.recorder.Recorder` as ``sample`` records.

The sampler obeys the recorder passivity contract (see
``repro.sim.core``): it draws no randomness and mutates no protocol
state, so its presence cannot change simulated results — only the
event-loop's internal sequence numbers shift, which preserves relative
order. ``tests/obs/test_determinism.py`` locks this in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Tuple

from repro.obs.recorder import Recorder
from repro.sim.resources import Resource

if TYPE_CHECKING:
    from repro.net.network import Network
    from repro.sim.core import Simulator


class _ResourceProbe:
    """Windowed utilization + queue depth of one finite resource."""

    def __init__(self, node: str, prefix: str, resource: Resource) -> None:
        self.node = node
        self.prefix = prefix
        self.resource = resource
        self._last_busy = resource.busy_seconds()
        self._last_at: float | None = None

    def read(self, now: float, recorder: Recorder) -> None:
        busy = self.resource.busy_seconds()
        if self._last_at is not None and now > self._last_at:
            window = (busy - self._last_busy) / (
                self.resource.capacity * (now - self._last_at)
            )
            recorder.sample(
                f"node/{self.prefix}/utilization", now, min(1.0, window), node=self.node
            )
        self._last_busy = busy
        self._last_at = now
        recorder.sample(f"node/{self.prefix}/queue", now, self.resource.queue_length, node=self.node)
        if self.prefix == "cpu":
            recorder.sample(f"node/{self.prefix}/in_use", now, self.resource.in_use, node=self.node)


class NodeSampler:
    """Samples registered probes every ``interval`` simulated seconds."""

    def __init__(self, sim: "Simulator", recorder: Recorder, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval}")
        self.sim = sim
        self.recorder = recorder
        self.interval = interval
        self._resource_probes: List[_ResourceProbe] = []
        self._gauges: List[Tuple[str, str, Callable[[], float]]] = []
        self._networks: List["Network"] = []
        self._started = False

    # -- registration ------------------------------------------------------

    def watch_resource(self, node: str, prefix: str, resource: Resource) -> None:
        """Sample a CPU (``prefix='cpu'``) or lock (``prefix='lock'``)."""
        self._resource_probes.append(_ResourceProbe(node, prefix, resource))

    def watch_gauge(self, node: str, name: str, fn: Callable[[], float]) -> None:
        """Sample an arbitrary read-only gauge (e.g. a queue depth)."""
        self._gauges.append((node, name, fn))

    def watch_network(self, network: "Network") -> None:
        """Sample a network's in-flight gauge and cumulative counters."""
        self._networks.append(network)

    # -- the sampling process -------------------------------------------------

    def start(self) -> None:
        """Launch the sampling loop (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.process(self._loop(), name="obs.sampler")

    def _loop(self):
        while True:
            self._sample_all(self.sim.now)
            yield self.sim.timeout(self.interval)

    def _sample_all(self, now: float) -> None:
        for probe in self._resource_probes:
            probe.read(now, self.recorder)
        for node, name, fn in self._gauges:
            self.recorder.sample(name, now, float(fn()), node=node)
        for network in self._networks:
            self.recorder.sample("net/in_flight", now, network.in_flight)
            self.recorder.sample("net/sent", now, network.sent_count)
            self.recorder.sample("net/delivered", now, network.delivered_count)
            self.recorder.sample("net/dropped", now, network.dropped_count)


__all__ = ["NodeSampler"]
