"""In-memory trace collection and trace-derived views.

:class:`TraceCollector` implements the :class:`~repro.obs.recorder.Recorder`
protocol with plain appends — recording never perturbs the simulation.
It keeps three flat lists (spans, instants, samples) plus indexes by
transaction id, and offers the views the benchmark layer builds on:
per-transaction lifecycles and gauge time series. The Table-3 phase
breakdown is the run's ``TransactionRecorder``'s (``phase_means_ms`` on
the result), which emits each phase span here.

All timestamps are simulated seconds. Span/instant/sample names are
documented in ``repro.obs.schema``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class Span:
    """One closed interval of simulated time."""

    name: str
    start: float
    end: float
    node: str = ""
    txn_id: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        """Whether ``other`` nests inside this span (inclusive bounds)."""
        return self.start <= other.start and other.end <= self.end


@dataclass(frozen=True, slots=True)
class Instant:
    """One point event."""

    name: str
    at: float
    node: str = ""
    txn_id: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class Sample:
    """One gauge/counter reading."""

    name: str
    at: float
    value: float
    node: str = ""


class TraceCollector:
    """Collects spans, instants, and samples from a traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.samples: List[Sample] = []
        self._spans_by_txn: Dict[str, List[Span]] = defaultdict(list)

    # -- Recorder protocol -------------------------------------------------

    def span(self, name, start, end, *, node="", txn_id=None, attrs=None) -> None:
        record = Span(name, start, end, node=node, txn_id=txn_id, attrs=dict(attrs or {}))
        self.spans.append(record)
        if txn_id is not None:
            self._spans_by_txn[txn_id].append(record)

    def instant(self, name, at, *, node="", txn_id=None, attrs=None) -> None:
        self.instants.append(Instant(name, at, node=node, txn_id=txn_id, attrs=dict(attrs or {})))

    def sample(self, name, at, value, *, node="") -> None:
        self.samples.append(Sample(name, at, float(value), node=node))

    # -- span views ----------------------------------------------------------

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def spans_for_txn(self, txn_id: str) -> List[Span]:
        """All spans carrying this transaction id, in emission order."""
        return list(self._spans_by_txn.get(txn_id, ()))

    def txn_ids(self) -> List[str]:
        return sorted(self._spans_by_txn)

    # -- sample views -----------------------------------------------------------

    def series(self, name: str, node: Optional[str] = None) -> List[Tuple[float, float]]:
        """The (time, value) series of one gauge, optionally per node."""
        return [
            (sample.at, sample.value)
            for sample in self.samples
            if sample.name == name and (node is None or sample.node == node)
        ]

    def sample_names(self) -> List[str]:
        return sorted({sample.name for sample in self.samples})

    def nodes_sampled(self) -> List[str]:
        return sorted({sample.node for sample in self.samples if sample.node})


__all__ = ["Span", "Instant", "Sample", "TraceCollector"]
