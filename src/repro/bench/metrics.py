"""Metric computation: throughput, latency percentiles, timelines.

The paper's definitions (Section 9): transaction throughput is "the
total number of successfully committed transactions divided by the
total time taken to commit these transactions"; latency is the response
time from sending the proposal until receiving the commit receipts per
the endorsement policy. We report average, 1st-percentile, and
99th-percentile latencies, as the paper's figures do.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.recording import TransactionRecorder


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class LatencyStats:
    """Latency summary in milliseconds."""

    count: int
    avg_ms: float
    p1_ms: float
    p99_ms: float

    @classmethod
    def from_seconds(cls, latencies: Sequence[float]) -> "LatencyStats":
        if not latencies:
            return cls(count=0, avg_ms=math.nan, p1_ms=math.nan, p99_ms=math.nan)
        return cls(
            count=len(latencies),
            avg_ms=1000.0 * sum(latencies) / len(latencies),
            p1_ms=1000.0 * percentile(latencies, 1),
            p99_ms=1000.0 * percentile(latencies, 99),
        )


@dataclass(frozen=True)
class SeriesStats:
    """Summary of one sampled time series (a gauge or counter)."""

    name: str
    node: str
    count: int
    mean: float
    peak: float
    last: float

    @classmethod
    def from_values(cls, name: str, node: str, values: Sequence[float]) -> "SeriesStats":
        if not values:
            return cls(name=name, node=node, count=0, mean=math.nan, peak=math.nan, last=math.nan)
        return cls(
            name=name,
            node=node,
            count=len(values),
            mean=sum(values) / len(values),
            peak=max(values),
            last=values[-1],
        )


def summarize_samples(collector) -> List[SeriesStats]:
    """Per-(metric, node) summaries of a trace collector's samples.

    ``collector`` is a :class:`repro.obs.trace.TraceCollector`; rows
    come back sorted by metric name then node for stable reporting.
    """
    by_key: Dict[Tuple[str, str], List[float]] = {}
    for sample in collector.samples:
        by_key.setdefault((sample.name, sample.node), []).append(sample.value)
    return [
        SeriesStats.from_values(name, node, values)
        for (name, node), values in sorted(by_key.items())
    ]


@dataclass
class ExperimentResult:
    """Everything a figure needs from one run."""

    system: str
    app: str
    arrival_rate: float
    duration: float
    submitted: int
    committed: int
    failed: int
    throughput_tps: float
    throughput_modify_tps: float
    throughput_read_tps: float
    latency_modify: LatencyStats
    latency_read: LatencyStats
    failure_reasons: Dict[str, int] = field(default_factory=dict)
    phase_means_ms: Dict[str, float] = field(default_factory=dict)
    timeline: List[Tuple[float, float]] = field(default_factory=list)  # (bucket start, tps)
    extra: Dict[str, float] = field(default_factory=dict)
    # The invariant-oracle report (repro.checkers.CheckReport) when the
    # config asked for checking, and the run's deterministic
    # fingerprint (repro.checkers.run_fingerprint). None otherwise.
    check_report: Optional[object] = None
    fingerprint: Optional[str] = None

    def summary_row(self) -> Dict[str, object]:
        """A flat row for tabular reporting."""
        return {
            "system": self.system,
            "app": self.app,
            "rate": self.arrival_rate,
            "tput": round(self.throughput_tps, 1),
            "tput_mod": round(self.throughput_modify_tps, 1),
            "tput_read": round(self.throughput_read_tps, 1),
            "lat_mod_ms": round(self.latency_modify.avg_ms, 1)
            if not math.isnan(self.latency_modify.avg_ms)
            else None,
            "lat_read_ms": round(self.latency_read.avg_ms, 1)
            if not math.isnan(self.latency_read.avg_ms)
            else None,
            "p99_mod_ms": round(self.latency_modify.p99_ms, 1)
            if not math.isnan(self.latency_modify.p99_ms)
            else None,
            "failed": self.failed,
        }


def compute_result(
    recorder: TransactionRecorder,
    system: str,
    app: str,
    arrival_rate: float,
    scale: float,
    timeline_bucket: float = 10.0,
    extra: Optional[Dict[str, float]] = None,
    check_report=None,
    fingerprint: Optional[str] = None,
) -> ExperimentResult:
    """Summarize a run's recorder into an :class:`ExperimentResult`.

    Throughputs are multiplied back by ``scale`` so results are
    reported in paper-scale tps regardless of the scale-down factor.
    """
    records = list(recorder.records.values())
    successes = [r for r in records if r.succeeded]
    failures = [r for r in records if r.failed_at is not None]
    if successes:
        first_submit = min(r.submitted_at for r in successes)
        last_commit = max(r.committed_at for r in successes)
        span = max(last_commit - first_submit, 1e-9)
        throughput = len(successes) / span
        modify_successes = [r for r in successes if r.kind == "modify"]
        read_successes = [r for r in successes if r.kind == "read"]
        throughput_modify = len(modify_successes) / span
        throughput_read = len(read_successes) / span
        duration = span
    else:
        throughput = throughput_modify = throughput_read = 0.0
        duration = 0.0
    timeline: List[Tuple[float, float]] = []
    if successes and timeline_bucket > 0:
        end = max(r.committed_at for r in successes)
        buckets = int(end // timeline_bucket) + 1
        counts = [0] * buckets
        for record in successes:
            counts[int(record.committed_at // timeline_bucket)] += 1
        timeline = [
            (index * timeline_bucket, scale * count / timeline_bucket)
            for index, count in enumerate(counts)
        ]
    reasons = Counter(r.failure_reason for r in failures)
    return ExperimentResult(
        system=system,
        app=app,
        arrival_rate=arrival_rate,
        duration=duration,
        submitted=len(records),
        committed=len(successes),
        failed=len(failures),
        throughput_tps=throughput * scale,
        throughput_modify_tps=throughput_modify * scale,
        throughput_read_tps=throughput_read * scale,
        latency_modify=LatencyStats.from_seconds(recorder.latencies("modify")),
        latency_read=LatencyStats.from_seconds(recorder.latencies("read")),
        failure_reasons=dict(reasons),
        phase_means_ms={
            name: 1000.0 * recorder.mean_phase(name) for name in sorted(recorder.phase_durations)
        },
        timeline=timeline,
        extra=dict(extra or {}),
        check_report=check_report,
        fingerprint=fingerprint,
    )


__all__ = [
    "ExperimentResult",
    "LatencyStats",
    "SeriesStats",
    "compute_result",
    "percentile",
    "summarize_samples",
]
