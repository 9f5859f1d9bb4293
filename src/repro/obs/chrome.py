"""Chrome trace-event-format export.

Turns a :class:`~repro.obs.trace.TraceCollector` into the JSON the
``chrome://tracing`` / Perfetto UI loads: spans become complete events
(``ph: "X"``), instants become instant events (``ph: "i"``), samples
become counter events (``ph: "C"``). Nodes map to processes (pids) and
transactions to threads (tids) within their node, so one transaction's
phases line up on one row and a node's work stacks visually.

Timestamps are simulated *micro*seconds (the format's unit); the
simulation's float seconds are multiplied by 1e6 and rounded to 3
decimal places to keep files diffable.

``phase_means_from_trace`` inverts the export: given a written trace
(the parsed JSON), it regenerates the Table-3-style mean-duration-per-
phase breakdown that ``repro trace`` prints.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.trace import TraceCollector

_US = 1_000_000.0


def _us(seconds: float) -> float:
    return round(seconds * _US, 3)


class _IdAllocator:
    """Stable small integers for node (pid) and txn (tid) names."""

    def __init__(self, start: int = 1) -> None:
        self._ids: Dict[str, int] = {}
        self._next = start

    def get(self, key: str) -> int:
        if key not in self._ids:
            self._ids[key] = self._next
            self._next += 1
        return self._ids[key]

    def items(self) -> List[Tuple[str, int]]:
        return sorted(self._ids.items(), key=lambda kv: kv[1])


def to_chrome_trace(collector: TraceCollector) -> Dict[str, Any]:
    """The collector's records as a Chrome trace-event JSON payload."""
    pids = _IdAllocator()
    tid_allocators: Dict[int, _IdAllocator] = defaultdict(lambda: _IdAllocator(start=1))
    events: List[Dict[str, Any]] = []

    def _pid(node: str) -> int:
        return pids.get(node or "(global)")

    def _tid(pid: int, txn_id: Optional[str]) -> int:
        if txn_id is None:
            return 0
        return tid_allocators[pid].get(txn_id)

    for span in collector.spans:
        pid = _pid(span.node)
        events.append(
            {
                "name": span.name,
                "cat": span.name.split("/", 1)[0],
                "ph": "X",
                "ts": _us(span.start),
                "dur": _us(span.duration),
                "pid": pid,
                "tid": _tid(pid, span.txn_id),
                "args": {**span.attrs, **({"txn_id": span.txn_id} if span.txn_id else {})},
            }
        )
    for instant in collector.instants:
        pid = _pid(instant.node)
        events.append(
            {
                "name": instant.name,
                "cat": instant.name.split("/", 1)[0],
                "ph": "i",
                "s": "t",
                "ts": _us(instant.at),
                "pid": pid,
                "tid": _tid(pid, instant.txn_id),
                "args": {**instant.attrs, **({"txn_id": instant.txn_id} if instant.txn_id else {})},
            }
        )
    for sample in collector.samples:
        pid = _pid(sample.node)
        events.append(
            {
                "name": sample.name,
                "cat": "metrics",
                "ph": "C",
                "ts": _us(sample.at),
                "pid": pid,
                "tid": 0,
                "args": {"value": sample.value},
            }
        )
    metadata: List[Dict[str, Any]] = []
    for node, pid in pids.items():
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": node},
            }
        )
        for txn_id, tid in tid_allocators.get(pid, _IdAllocator()).items():
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": txn_id},
                }
            )
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(collector: TraceCollector, path: str) -> Dict[str, Any]:
    """Export the collector to ``path`` and return the payload."""
    payload = to_chrome_trace(collector)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return payload


def load_chrome_trace(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def phase_means_from_trace(payload: Dict[str, Any]) -> Dict[str, float]:
    """Regenerate mean span durations (ms) from an exported trace.

    This is deliberately computed from the *exported* JSON, not the
    live collector, to prove the trace file alone carries the Table-3
    breakdown.
    """
    totals: Dict[str, Tuple[float, int]] = {}
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        total, count = totals.get(event["name"], (0.0, 0))
        totals[event["name"]] = (total + event["dur"], count + 1)
    # dur is in microseconds; report milliseconds.
    return {name: total / count / 1000.0 for name, (total, count) in sorted(totals.items())}


__all__ = [
    "load_chrome_trace",
    "phase_means_from_trace",
    "to_chrome_trace",
    "write_chrome_trace",
]
