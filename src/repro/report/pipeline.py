"""The report pipeline: run the catalog, render, write, or check.

``run_report`` is the engine behind ``python -m repro report``. For
each selected spec it (1) consults the result cache, (2) runs the
experiment on a miss (sweep-level parallelism via the one executor
and ``--jobs``), (3) evaluates the registered shape checks into a
verdict, then renders everything into:

* the marked sections of ``EXPERIMENTS.md`` (full runs rebuild the
  whole document; ``--figures`` subsets splice into the existing one);
* the ``experiments.json`` manifest (merged with any committed
  manifest so a subset run never discards other figures' entries);
* one CSV per figure under the output directory.

``check=True`` writes nothing: it renders in memory, diffs each fresh
section against the committed EXPERIMENTS.md and each manifest entry
against the committed ``experiments.json`` (environment block
excluded), and reports drift — the CI gate that keeps the committed
tables honest.

When given a trace collector, the pipeline emits ``report/experiment``
and ``report/render`` spans (wall seconds since pipeline start), so a
slow report run can be inspected with the usual trace tooling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.report import manifest as manifest_mod
from repro.report import render
from repro.report.cache import ResultCache
from repro.report.catalog import select_specs
from repro.report.checks import CheckOutcome, run_checks, verdict
from repro.report.spec import ExperimentSpec

DEFAULT_EXPERIMENTS_MD = Path("EXPERIMENTS.md")
DEFAULT_MANIFEST = Path("experiments.json")
DEFAULT_CACHE_DIR = Path(".repro-report-cache")
DEFAULT_OUT_DIR = Path("results/report")


@dataclass
class ExperimentRun:
    """One spec's trip through the pipeline."""

    spec: ExperimentSpec
    spec_hash: str
    params: Dict[str, Any]
    records: Any
    outcomes: List[CheckOutcome]
    cached: bool
    seconds: float

    @property
    def verdict(self) -> str:
        return verdict(self.outcomes)


@dataclass
class ReportOutcome:
    """What a report run did, and whether it should fail the caller."""

    runs: List[ExperimentRun] = field(default_factory=list)
    drifts: List[str] = field(default_factory=list)
    exit_code: int = 0


def run_report(
    figures: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    quick: bool = False,
    check: bool = False,
    experiments_md: Path = DEFAULT_EXPERIMENTS_MD,
    manifest_path: Path = DEFAULT_MANIFEST,
    cache_dir: Path = DEFAULT_CACHE_DIR,
    out_dir: Path = DEFAULT_OUT_DIR,
    collector: Any = None,
    echo: Callable[[str], None] = print,
) -> ReportOutcome:
    """Run (or check) the selected slice of the experiment catalog."""
    specs = select_specs(figures)
    subset = bool(figures)
    cache = ResultCache(cache_dir)
    t0 = time.perf_counter()
    outcome = ReportOutcome()

    entries: Dict[str, Dict[str, Any]] = {}
    sections: Dict[str, str] = {}
    for spec in specs:
        spec_hash = spec.spec_hash(quick=quick)
        params = spec.resolved_params(quick=quick)
        started = time.perf_counter()
        records = cache.load(spec, spec_hash)
        cached = records is not None
        if not cached:
            records = spec.run(jobs=jobs, quick=quick)
            cache.store(spec, spec_hash, records)
        seconds = time.perf_counter() - started
        if collector is not None:
            collector.span(
                "report/experiment",
                started - t0,
                time.perf_counter() - t0,
                attrs={"spec_id": spec.spec_id, "cached": cached},
            )
        outcomes = run_checks(spec.checks, records, {"spec": spec, "params": params})
        run = ExperimentRun(spec, spec_hash, params, records, outcomes, cached, seconds)
        outcome.runs.append(run)
        source = "cached" if cached else f"{seconds:.1f}s"
        echo(f"  {spec.spec_id}: {run.verdict} ({source})")
        entries[spec.spec_id] = manifest_mod.manifest_entry(
            spec, spec_hash, params, records, outcomes, cached
        )
        sections[spec.spec_id] = render.render_section(spec, records, outcomes, spec_hash)

    render_started = time.perf_counter()
    scale = entries[next(iter(entries))]["params"]["scale"] if entries else 1.0

    # Subset runs merge into the committed manifest instead of
    # replacing it, so regenerating one figure keeps the rest intact.
    committed_manifest = manifest_mod.load_manifest(manifest_path)
    merged_entries: Dict[str, Dict[str, Any]] = {}
    if subset and committed_manifest is not None:
        merged_entries.update(committed_manifest.get("experiments", {}))
    merged_entries.update(entries)
    fresh_manifest = manifest_mod.build_manifest(merged_entries, quick)

    if check:
        outcome.drifts.extend(_section_drift(experiments_md, sections))
        outcome.drifts.extend(
            manifest_mod.manifests_differ(committed_manifest, fresh_manifest, list(entries))
        )
        for drift in outcome.drifts:
            echo(f"  drift: {drift}")
        if outcome.drifts:
            outcome.exit_code = 1
            echo(f"{len(outcome.drifts)} drift(s) vs committed EXPERIMENTS.md/manifest")
        else:
            echo("no drift: committed tables match freshly generated results")
    else:
        _write_experiments_md(experiments_md, sections, specs, subset, quick, scale)
        manifest_mod.write_manifest(manifest_path, fresh_manifest)
        out_dir.mkdir(parents=True, exist_ok=True)
        for run in outcome.runs:
            (out_dir / f"{run.spec.spec_id}.csv").write_text(
                render.render_csv(run.spec, run.records)
            )
        failing = [run.spec.spec_id for run in outcome.runs if run.verdict.startswith("NOT")]
        if failing:
            outcome.exit_code = 1
            echo(f"wrote {experiments_md}, but NOT reproduced: {', '.join(failing)}")
        else:
            echo(f"wrote {experiments_md}, {manifest_path}, and {len(entries)} CSV file(s)")

    if collector is not None:
        collector.span(
            "report/render",
            render_started - t0,
            time.perf_counter() - t0,
            attrs={"check": check, "sections": len(sections)},
        )
    return outcome


def _section_drift(experiments_md: Path, fresh: Mapping[str, str]) -> List[str]:
    try:
        committed = render.extract_sections(experiments_md.read_text())
    except OSError:
        return [f"{experiments_md} missing or unreadable"]
    drifts = []
    for spec_id, section in fresh.items():
        if spec_id not in committed:
            drifts.append(f"{spec_id}: no marked section in {experiments_md}")
        elif committed[spec_id] != section:
            drifts.append(f"{spec_id}: {experiments_md} section differs from fresh render")
    return drifts


def _write_experiments_md(
    experiments_md: Path,
    sections: Mapping[str, str],
    specs: Sequence[ExperimentSpec],
    subset: bool,
    quick: bool,
    scale: float,
) -> None:
    ordered = [sections[spec.spec_id] for spec in specs]
    if subset and experiments_md.exists():
        text = render.splice_sections(experiments_md.read_text(), sections)
    else:
        text = render.render_document(ordered, quick, scale)
    experiments_md.write_text(text)


__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_EXPERIMENTS_MD",
    "DEFAULT_MANIFEST",
    "DEFAULT_OUT_DIR",
    "ExperimentRun",
    "ReportOutcome",
    "run_report",
]
