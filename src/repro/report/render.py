"""Render experiment records into EXPERIMENTS.md sections and CSV.

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

import io
import csv
import re
from typing import Any, Dict, List, Mapping, Sequence

from repro.bench.export import records_to_csv
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


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---:" for _ in headers) + "|",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


_SWEEP_COLUMNS = (
    ("committed", lambda r: _fmt(r["committed"])),
    ("failed", lambda r: _fmt(r["failed"])),
    ("tput (tps)", lambda r: _fmt(r["throughput_tps"])),
    ("modify tput (tps)", lambda r: _fmt(r["throughput_modify_tps"])),
    ("modify lat avg (ms)", lambda r: _fmt(r["latency_modify_avg_ms"])),
    ("modify lat p99 (ms)", lambda r: _fmt(r["latency_modify_p99_ms"])),
    ("read lat avg (ms)", lambda r: _fmt(r["latency_read_avg_ms"])),
)


def _sweep_table(records: List[Dict[str, Any]], x_label: str) -> str:
    headers = [x_label] + [name for name, _ in _SWEEP_COLUMNS]
    rows = [
        [_fmt(record[x_label])] + [cell(record) for _, cell in _SWEEP_COLUMNS]
        for record in records
    ]
    return _table(headers, rows)


def _comparison_table(series: Mapping[str, List[Dict[str, Any]]], x_label: str) -> str:
    headers = ["system", x_label] + [name for name, _ in _SWEEP_COLUMNS]
    rows = [
        [name, _fmt(record[x_label])] + [cell(record) for _, cell in _SWEEP_COLUMNS]
        for name, records in series.items()
        for record in records
    ]
    return _table(headers, rows)


def _timeline_table(record: Dict[str, Any]) -> str:
    summary = _table(
        ["committed", "failed", "tput (tps)", "modify lat avg (ms)", "modify lat p99 (ms)"],
        [[
            _fmt(record["committed"]),
            _fmt(record["failed"]),
            _fmt(record["throughput_tps"]),
            _fmt(record["latency_modify_avg_ms"]),
            _fmt(record["latency_modify_p99_ms"]),
        ]],
    )
    timeline = _table(
        ["t (s)", "tps"],
        [[_fmt(float(t)), _fmt(float(tps), 0)] for t, tps in record["timeline"]],
    )
    return summary + "\n\nThroughput timeline:\n\n" + timeline


def _breakdown_table(records: Mapping[str, Mapping[str, float]]) -> str:
    rows = [
        [system, phase, _fmt(float(mean))]
        for system, phases in records.items()
        for phase, mean in phases.items()
    ]
    return _table(["system", "phase", "mean (ms)"], rows)


def _scalar_table(records: Mapping[str, float]) -> str:
    rows = [[name, _fmt(float(value), 3)] for name, value in records.items()]
    return _table(["metric", "value"], rows)


def render_table(spec: ExperimentSpec, records: Any) -> str:
    if spec.kind == "sweep":
        return _sweep_table(records, spec.x_label)
    if spec.kind == "comparison":
        return _comparison_table(records, spec.x_label)
    if spec.kind == "timeline":
        return _timeline_table(records)
    if spec.kind == "breakdown":
        return _breakdown_table(records)
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
    if outcomes:
        lines.append("Checks:")
        lines.append("")
        for outcome in outcomes:
            mark = "pass" if outcome.ok else "FAIL"
            lines.append(f"- [{mark}] `{outcome.name}` — {outcome.detail}")
        lines.append("")
    lines.append(f"**Verdict: {verdict(outcomes)}**")
    lines.append(f"<!-- repro:end {spec.spec_id} -->")
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
            "- Machine-readable results: `experiments.json` (manifest), `results/report/` (CSV).",
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


def render_csv(spec: ExperimentSpec, records: Any) -> str:
    """Per-figure CSV, shaped by kind (flat scalar columns only)."""
    if spec.kind == "sweep":
        return records_to_csv(records)
    if spec.kind == "comparison":
        flat = [
            {"series": name, **record}
            for name, series in records.items()
            for record in series
        ]
        return records_to_csv(flat)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if spec.kind == "timeline":
        writer.writerow(["t_s", "tps"])
        writer.writerows(records["timeline"])
    elif spec.kind == "breakdown":
        writer.writerow(["system", "phase", "mean_ms"])
        for system, phases in records.items():
            for phase, mean in phases.items():
                writer.writerow([system, phase, mean])
    elif spec.kind == "scalar":
        writer.writerow(["metric", "value"])
        writer.writerows(records.items())
    else:
        raise ConfigError(f"unknown spec kind {spec.kind!r}")
    return buffer.getvalue()


__all__ = [
    "extract_sections",
    "render_csv",
    "render_document",
    "render_section",
    "render_table",
    "splice_sections",
]
