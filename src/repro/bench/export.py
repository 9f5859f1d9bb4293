"""Serialize experiment results to JSON/CSV for plotting pipelines.

Every catalog spec's results pass through here
(:func:`repro.report.spec.results_to_records`), so ``python -m repro
run fig6a --output results/fig6a.json`` writes what ``repro report``
caches: sweeps become a list of records; comparisons become one list
per system; breakdowns become phase dictionaries. The JSON shape is
stable and documented by the tests.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Dict, List, Sequence, Tuple

from repro.bench.metrics import ExperimentResult


def _clean(value: float) -> Any:
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def result_to_record(result: ExperimentResult) -> Dict[str, Any]:
    """A flat, JSON-safe record of one experiment result."""
    return {
        "system": result.system,
        "app": result.app,
        "arrival_rate": result.arrival_rate,
        "duration_s": result.duration,
        "submitted": result.submitted,
        "committed": result.committed,
        "failed": result.failed,
        "throughput_tps": _clean(result.throughput_tps),
        "throughput_modify_tps": _clean(result.throughput_modify_tps),
        "throughput_read_tps": _clean(result.throughput_read_tps),
        "latency_modify_avg_ms": _clean(result.latency_modify.avg_ms),
        "latency_modify_p1_ms": _clean(result.latency_modify.p1_ms),
        "latency_modify_p99_ms": _clean(result.latency_modify.p99_ms),
        "latency_read_avg_ms": _clean(result.latency_read.avg_ms),
        "latency_read_p1_ms": _clean(result.latency_read.p1_ms),
        "latency_read_p99_ms": _clean(result.latency_read.p99_ms),
        "failure_reasons": dict(result.failure_reasons),
        # True/False when the run was oracle-checked, None otherwise.
        "oracles_ok": (result.check_report.ok if result.check_report is not None else None),
        "phase_means_ms": {k: _clean(v) for k, v in result.phase_means_ms.items()},
        "timeline": [[t, tps] for t, tps in result.timeline],
        "extra": {k: _clean(v) for k, v in result.extra.items()},
    }


def sweep_to_records(
    sweep: Sequence[Tuple[object, ExperimentResult]], x_label: str = "x"
) -> List[Dict[str, Any]]:
    """A sweep (one figure panel) as a list of records."""
    records = []
    for x_value, result in sweep:
        record = result_to_record(result)
        record[x_label] = x_value
        records.append(record)
    return records


def comparison_to_records(
    series: Dict[str, Sequence[Tuple[object, ExperimentResult]]], x_label: str = "x"
) -> Dict[str, List[Dict[str, Any]]]:
    """A multi-system figure as one record list per system."""
    return {system: sweep_to_records(sweep, x_label) for system, sweep in series.items()}


def to_json(payload: Any, path: str | None = None, indent: int = 2) -> str:
    """Serialize to JSON, optionally writing to ``path``."""
    text = json.dumps(payload, indent=indent, sort_keys=True)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    return text


_CSV_FIELDS = [
    "system",
    "app",
    "arrival_rate",
    "committed",
    "failed",
    "throughput_tps",
    "throughput_modify_tps",
    "throughput_read_tps",
    "latency_modify_avg_ms",
    "latency_modify_p99_ms",
    "latency_read_avg_ms",
]


def records_to_csv(records: List[Dict[str, Any]], path: str | None = None) -> str:
    """Flat records as CSV (the scalar columns only)."""
    extra_keys = [key for key in records[0] if key not in _CSV_FIELDS] if records else []
    scalar_extras = [
        key
        for key in extra_keys
        if records and not isinstance(records[0][key], (dict, list))
    ]
    fields = scalar_extras + _CSV_FIELDS
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow(record)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text


__all__ = [
    "comparison_to_records",
    "records_to_csv",
    "result_to_record",
    "sweep_to_records",
    "to_json",
]
