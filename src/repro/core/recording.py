"""Transaction-level metrics recording.

Organizations and clients report events here; the benchmark harness
turns the records into throughput, latency percentiles, timelines, and
phase breakdowns (Table 3). The recorder is deliberately dumb — plain
appends — so recording never perturbs protocol behaviour.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class TransactionRecord:
    """Lifecycle of one client-submitted transaction."""

    transaction_id: str
    client_id: str
    kind: str  # "modify" | "read"
    submitted_at: float
    committed_at: Optional[float] = None
    failed_at: Optional[float] = None
    failure_reason: Optional[str] = None
    retries: int = 0

    @property
    def latency(self) -> Optional[float]:
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at

    @property
    def succeeded(self) -> bool:
        return self.committed_at is not None


class TransactionRecorder:
    """Collects per-transaction outcomes and per-phase durations."""

    def __init__(self) -> None:
        self.records: Dict[str, TransactionRecord] = {}
        # phase name -> list of durations (seconds); feeds Table 3.
        self.phase_durations: Dict[str, List[float]] = defaultdict(list)

    # -- transaction lifecycle ---------------------------------------

    def submitted(self, transaction_id: str, client_id: str, kind: str, now: float) -> None:
        self.records[transaction_id] = TransactionRecord(
            transaction_id=transaction_id, client_id=client_id, kind=kind, submitted_at=now
        )

    def committed(self, transaction_id: str, now: float) -> None:
        record = self.records.get(transaction_id)
        if record is not None and record.committed_at is None:
            record.committed_at = now

    def failed(self, transaction_id: str, now: float, reason: str) -> None:
        record = self.records.get(transaction_id)
        if record is not None and record.committed_at is None and record.failed_at is None:
            record.failed_at = now
            record.failure_reason = reason

    def retried(self, transaction_id: str) -> None:
        record = self.records.get(transaction_id)
        if record is not None:
            record.retries += 1

    # -- phase breakdown (Table 3) --------------------------------------

    def phase(self, name: str, duration: float) -> None:
        self.phase_durations[name].append(duration)

    # -- views -------------------------------------------------------------

    def successes(self, kind: Optional[str] = None) -> List[TransactionRecord]:
        return [
            r
            for r in self.records.values()
            if r.succeeded and (kind is None or r.kind == kind)
        ]

    def failures(self, kind: Optional[str] = None) -> List[TransactionRecord]:
        return [
            r
            for r in self.records.values()
            if r.failed_at is not None and (kind is None or r.kind == kind)
        ]

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        return [r.latency for r in self.successes(kind) if r.latency is not None]

    def mean_phase(self, name: str) -> float:
        durations = self.phase_durations.get(name, [])
        if not durations:
            return 0.0
        return sum(durations) / len(durations)


__all__ = ["TransactionRecord", "TransactionRecorder"]
