"""Plain-text reporting for ``repro trace`` and the observability smoke.

Fixed-width layouts that are easy to diff across runs. Figure and
table panels are rendered by :func:`repro.report.render.render_table`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence

from repro.bench.metrics import SeriesStats


def _fmt(value: object, width: int = 9) -> str:
    if value is None:
        return " " * (width - 1) + "-"
    if isinstance(value, float):
        if math.isnan(value):
            return " " * (width - 1) + "-"
        return f"{value:>{width}.1f}"
    return f"{value!s:>{width}}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width table with a header rule."""
    lines = ["  ".join(f"{h:>9}" for h in headers)]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(_fmt(cell) for cell in row))
    return "\n".join(lines)


def format_node_metrics(title: str, rows: Sequence[SeriesStats]) -> str:
    """Per-node time-series summary (mean/peak of each sampled gauge).

    ``rows`` come from :func:`repro.bench.metrics.summarize_samples`;
    the schema for each metric name is in docs/OBSERVABILITY.md.
    """
    lines = [f"== {title} ==", f"{'metric':<24} {'node':<16} {'mean':>10} {'peak':>10}"]
    for stats in rows:
        mean = "-" if math.isnan(stats.mean) else f"{stats.mean:.3f}"
        peak = "-" if math.isnan(stats.peak) else f"{stats.peak:.3f}"
        lines.append(f"{stats.name:<24} {stats.node:<16} {mean:>10} {peak:>10}")
    if not rows:
        lines.append("(no samples recorded; enable sampling with --sample-interval)")
    return "\n".join(lines)


def format_breakdown(title: str, phase_means_ms: Dict[str, float]) -> str:
    """Table 3-style phase breakdown."""
    lines = [f"== {title} =="]
    for name, mean in sorted(phase_means_ms.items()):
        lines.append(f"  {name:<40} {mean:>10.1f} ms")
    return "\n".join(lines)


__all__ = ["format_breakdown", "format_node_metrics", "format_table"]
