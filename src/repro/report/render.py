"""Render experiment records into EXPERIMENTS.md sections and tables.

Every generated section is fenced by HTML-comment markers::

    <!-- repro:begin <spec_id> spec=<hash12> -->
    ...title, claim, table, checks, verdict...
    <!-- repro:end <spec_id> -->

The markers make sections machine-addressable: ``--figures`` splices a
subset into an existing file without touching the rest, and ``--check``
extracts the committed section for one spec and compares it against a
freshly rendered one. All formatting is fixed-precision and the input
records are deterministic, so two renders of the same results are
byte-identical — EXPERIMENTS.md deliberately contains no timestamp or
host information (that lives in ``experiments.json``'s environment
block).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Sequence

from repro.errors import ConfigError
from repro.report.cache import HASH_PREFIX
from repro.report.checks import CheckOutcome, verdict
from repro.report.spec import ExperimentSpec

_SECTION_RE = re.compile(
    r"<!-- repro:begin (?P<spec_id>\S+)[^>]*-->\n.*?\n<!-- repro:end (?P=spec_id) -->",
    re.DOTALL,
)


def _fmt(value: Any, digits: int = 1) -> str:
    """Fixed-precision cell formatting (floats), counts as-is."""
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """A markdown table; cells that are not yet text go through ``_fmt``."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---:" for _ in headers) + "|",
    ]
    lines += ["| " + " | ".join(_fmt(cell) for cell in row) + " |" for row in rows]
    return "\n".join(lines)


# (header, record key) per column of a sweep or comparison table.
_SWEEP_COLUMNS = (
    ("committed", "committed"),
    ("failed", "failed"),
    ("tput (tps)", "throughput_tps"),
    ("modify tput (tps)", "throughput_modify_tps"),
    ("modify lat avg (ms)", "latency_modify_avg_ms"),
    ("modify lat p99 (ms)", "latency_modify_p99_ms"),
    ("read lat avg (ms)", "latency_read_avg_ms"),
)


def _sweep_table(records: List[Dict[str, Any]], x_label: str) -> str:
    headers = [x_label] + [name for name, _ in _SWEEP_COLUMNS]
    rows = [[record[x_label]] + [record[key] for _, key in _SWEEP_COLUMNS] for record in records]
    return table(headers, rows)


def _comparison_table(series: Mapping[str, List[Dict[str, Any]]], x_label: str) -> str:
    headers = ["system", x_label] + [name for name, _ in _SWEEP_COLUMNS]
    rows = [
        [name, record[x_label]] + [record[key] for _, key in _SWEEP_COLUMNS]
        for name, records in series.items()
        for record in records
    ]
    return table(headers, rows)


def _timeline_table(record: Dict[str, Any]) -> str:
    # The sweep columns less modify throughput and read latency.
    columns = _SWEEP_COLUMNS[:3] + _SWEEP_COLUMNS[4:6]
    summary = table([name for name, _ in columns], [[record[key] for _, key in columns]])
    timeline = table(
        ["t (s)", "tps"], [[float(t), _fmt(float(tps), 0)] for t, tps in record["timeline"]]
    )
    return summary + "\n\nThroughput timeline:\n\n" + timeline


def breakdown_table(records: Mapping[str, Mapping[str, float]]) -> str:
    rows = [
        [system, phase, float(mean)]
        for system, phases in records.items()
        for phase, mean in phases.items()
    ]
    return table(["system", "phase", "mean (ms)"], rows)


def _scalar_table(records: Mapping[str, float]) -> str:
    rows = [[name, _fmt(float(value), 3)] for name, value in records.items()]
    return table(["metric", "value"], rows)


def render_table(spec: ExperimentSpec, records: Any) -> str:
    if spec.kind == "sweep":
        return _sweep_table(records, spec.x_label)
    if spec.kind == "comparison":
        return _comparison_table(records, spec.x_label)
    if spec.kind == "timeline":
        return _timeline_table(records)
    if spec.kind == "breakdown":
        return breakdown_table(records)
    if spec.kind == "scalar":
        return _scalar_table(records)
    raise ConfigError(f"unknown spec kind {spec.kind!r}")


def render_section(
    spec: ExperimentSpec,
    records: Any,
    outcomes: Sequence[CheckOutcome],
    spec_hash: str,
) -> str:
    """One complete marked EXPERIMENTS.md section, markers included."""
    lines = [
        f"<!-- repro:begin {spec.spec_id} spec={spec_hash[:HASH_PREFIX]} -->",
        f"## {spec.section_title}",
        "",
        f"**Paper claim.** {spec.paper_claim}",
        "",
        render_table(spec, records),
        "",
    ]
    if spec.notes:
        lines += [spec.notes, ""]
    lines.append(render_checks(outcomes))
    lines.append(f"<!-- repro:end {spec.spec_id} -->")
    return "\n".join(lines)


def render_checks(outcomes: Sequence[CheckOutcome]) -> str:
    """A section's check list and verdict line (``repro run`` prints it
    under each panel's table)."""
    lines = []
    if outcomes:
        lines.append("Checks:")
        lines.append("")
        for outcome in outcomes:
            mark = "pass" if outcome.ok else "FAIL"
            lines.append(f"- [{mark}] `{outcome.name}` — {outcome.detail}")
        lines.append("")
    lines.append(f"**Verdict: {verdict(outcomes)}**")
    return "\n".join(lines)


def render_document(sections: Sequence[str], quick: bool, scale: float) -> str:
    """The full EXPERIMENTS.md: a static header plus every section."""
    mode = "quick (reduced grids and durations)" if quick else "full"
    header = "\n".join(
        [
            "# Experiments: paper figures vs this reproduction",
            "",
            "> Generated by `python -m repro report"
            + (" --quick" if quick else "")
            + "` — do not edit the marked sections by hand.",
            "> Regenerate with the same command; see docs/REPORT.md for the",
            "> pipeline and docs/CALIBRATION.md for the scale-down methodology.",
            "",
            f"- Mode: {mode}",
            f"- Scale factor: {scale:g} (simulated organizations serve paper-rate",
            "  load divided by this factor; throughputs are reported paper-scale)",
            "- Verdicts are mechanical: every section lists its shape checks",
            "  (`src/repro/report/checks.py`) and is `reproduced` only if all pass.",
            "- Machine-readable results: `experiments.json` (manifest with every record in full).",
        ]
    )
    return header + "\n\n" + "\n\n".join(sections) + "\n"


def extract_sections(text: str) -> Dict[str, str]:
    """Marked sections of an EXPERIMENTS.md, keyed by spec id."""
    return {
        match.group("spec_id"): match.group(0) for match in _SECTION_RE.finditer(text)
    }


def splice_sections(text: str, replacements: Mapping[str, str]) -> str:
    """Replace matching marked sections in ``text``, leaving the rest.

    Sections in ``replacements`` that do not appear in ``text`` (e.g. a
    spec added since the file was last fully regenerated) are appended
    at the end, in catalog order.
    """
    seen = set()

    def replace(match: re.Match) -> str:
        spec_id = match.group("spec_id")
        if spec_id in replacements:
            seen.add(spec_id)
            return replacements[spec_id]
        return match.group(0)

    spliced = _SECTION_RE.sub(replace, text)
    missing = [section for spec_id, section in replacements.items() if spec_id not in seen]
    if missing:
        spliced = spliced.rstrip("\n") + "\n\n" + "\n\n".join(missing) + "\n"
    return spliced


__all__ = [
    "breakdown_table",
    "extract_sections",
    "render_checks",
    "render_document",
    "render_section",
    "render_table",
    "splice_sections",
    "table",
]
