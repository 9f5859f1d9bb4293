"""Transaction-level metrics recording.

Organizations, clients and baseline replicas report events here; the
benchmark harness turns the records into throughput, latency
percentiles, timelines, and phase breakdowns (Table 3). The recorder is
deliberately dumb — plain appends — so recording never perturbs
protocol behaviour.

It is also the one sink of the trace: each observed fact is one call
here, and when ``trace`` (a :class:`repro.obs.Recorder`, or ``None``)
is set that call also emits the matching span or instants. Components
send their finer detail spans through the same ``trace`` attribute, so
a phase in the breakdown and its span in the trace cannot diverge.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


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
        # The run's repro.obs recorder, or None for an untraced run.
        self.trace = None

    # -- transaction lifecycle ---------------------------------------

    def submitted(self, transaction_id: str, client_id: str, kind: str, now: float) -> None:
        if transaction_id in self.records:
            return  # a Byzantine client can reuse an id; the first record stands
        self.records[transaction_id] = TransactionRecord(
            transaction_id=transaction_id, client_id=client_id, kind=kind, submitted_at=now
        )
        if self.trace is not None:
            self.trace.instant(
                "txn/submitted", now, node=client_id, txn_id=transaction_id, attrs={"kind": kind}
            )

    def committed(self, transaction_id: str, now: float) -> None:
        record = self.records.get(transaction_id)
        if record is not None and record.committed_at is None:
            record.committed_at = now
            self._trace_outcome(record, now, "committed")

    def failed(self, transaction_id: str, now: float, reason: str) -> None:
        record = self.records.get(transaction_id)
        if record is not None and record.committed_at is None and record.failed_at is None:
            record.failed_at = now
            record.failure_reason = reason
            self._trace_outcome(record, now, reason)

    def retried(self, transaction_id: str, phase: str, attempt: int, now: float) -> None:
        record = self.records.get(transaction_id)
        if record is None:
            return
        record.retries += 1
        if self.trace is not None:
            self.trace.instant(
                "client/retry",
                now,
                node=record.client_id,
                txn_id=transaction_id,
                attrs={"phase": phase, "attempt": attempt},
            )

    def _trace_outcome(self, record: TransactionRecord, now: float, outcome: str) -> None:
        """Mark a transaction's fate and close its ``client/txn`` span."""
        if self.trace is None:
            return
        committed = outcome == "committed"
        self.trace.instant(
            "txn/committed" if committed else "txn/failed",
            now,
            node=record.client_id,
            txn_id=record.transaction_id,
            attrs=None if committed else {"reason": outcome},
        )
        self.trace.span(
            "client/txn",
            record.submitted_at,
            now,
            node=record.client_id,
            txn_id=record.transaction_id,
            attrs={"kind": record.kind, "outcome": outcome},
        )

    # -- phase breakdown (Table 3) --------------------------------------

    def phase(
        self,
        name: str,
        start: float,
        end: float,
        *,
        node: str,
        txn_id: str,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """One phase of one transaction at one node, [start, end] seconds."""
        self.phase_durations[name].append(end - start)
        if self.trace is not None:
            self.trace.span(name, start, end, node=node, txn_id=txn_id, attrs=attrs)

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
