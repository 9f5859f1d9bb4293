"""Declarative experiment specifications.

One :class:`ExperimentSpec` registers a paper figure/table with
everything the report pipeline needs to regenerate it mechanically:

* ``build`` — the panel's builder in :mod:`repro.bench.experiments`
  (or any callable): called with the resolved params, it returns the
  ``(series, x, config)`` points the one executor
  (:func:`~repro.bench.experiments.run_points`) simulates;
* ``params`` / ``quick_params`` — the full-run kwargs (the sweep's
  ``grid`` included) and the reduced ``--quick`` overrides (smaller
  grids, shorter durations);
* ``kind`` — the result shape (``sweep``, ``comparison``,
  ``timeline``, ``breakdown``, ``scalar``), which fixes how results
  serialize to JSON records and render to tables;
* ``checks`` — names of shape assertions (:mod:`repro.report.checks`)
  that turn the paper's qualitative claims into a mechanical verdict;
* prose (``section_title``, ``paper_claim``, ``notes``) rendered into
  the generated EXPERIMENTS.md.

The spec hash — :meth:`ExperimentSpec.spec_hash` — is a SHA-256 over
the canonical JSON of the *resolved* run parameters plus the builder's
name. It keys the result cache and is recorded in the
``experiments.json`` manifest, so a cached artifact can never be
replayed against a spec whose inputs changed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.bench.config import default_scale
from repro.bench.experiments import run_points
from repro.errors import ConfigError

# Result shapes a spec may declare.
KINDS = ("sweep", "comparison", "timeline", "breakdown", "scalar")


def _canonical_json(value: Any) -> str:
    """Deterministic JSON used for hashing (sorted keys, no spaces)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered figure/table of the paper's evaluation."""

    spec_id: str
    kind: str
    build: Callable[..., Any]
    section_title: str
    paper_claim: str
    params: Mapping[str, Any] = field(default_factory=dict)
    quick_params: Mapping[str, Any] = field(default_factory=dict)
    checks: Tuple[str, ...] = ()
    x_label: str = "x"
    group: str = ""
    notes: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown spec kind {self.kind!r}; choose from {KINDS}")
        if not self.spec_id or any(ch.isspace() for ch in self.spec_id):
            raise ConfigError(f"spec_id must be a non-empty token, got {self.spec_id!r}")

    @property
    def runner(self) -> str:
        """The builder's ``module:function`` name (manifest, spec hash)."""
        return f"{self.build.__module__}:{self.build.__qualname__}"

    # -- parameter resolution ------------------------------------------------

    def resolved_params(
        self, quick: bool = False, overrides: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """The exact kwargs one run will receive.

        Layering: full ``params``, then ``quick_params`` when asked,
        then explicit ``overrides``. ``seed`` and ``scale`` are always
        pinned (scale resolves the ``REPRO_BENCH_SCALE`` default here),
        so the spec hash captures every input of the simulation.
        """
        resolved: Dict[str, Any] = dict(self.params)
        if quick:
            resolved.update(self.quick_params)
        if overrides:
            resolved.update(overrides)
        resolved.setdefault("seed", 0)
        if resolved.get("scale") is None:
            resolved["scale"] = default_scale()
        return resolved

    def spec_hash(
        self, quick: bool = False, overrides: Optional[Mapping[str, Any]] = None
    ) -> str:
        """SHA-256 hex digest over builder name + resolved run parameters.

        Deliberately excludes prose, checks, and ``jobs`` (parallelism
        cannot change results — docs/PERFORMANCE.md), so re-wording a
        claim or re-running with more workers never invalidates a
        cached artifact, while any change to the simulated inputs does.
        """
        payload = {
            "spec_id": self.spec_id,
            "kind": self.kind,
            "runner": self.runner,
            "params": self.resolved_params(quick=quick, overrides=overrides),
        }
        return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()

    # -- execution ----------------------------------------------------------

    def run(
        self,
        jobs: int = 1,
        quick: bool = False,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> Any:
        """Run the experiment and return JSON-ready records.

        The builder's points go through the one executor, which is the
        only place ``jobs`` is handled. The raw
        :class:`~repro.bench.metrics.ExperimentResult` objects are
        converted to flat records immediately (see
        :func:`results_to_records`), so callers — the cache, the
        renderers, the checks, the CLI — only ever see plain data.
        """
        points = self.build(**self.resolved_params(quick=quick, overrides=overrides))
        return results_to_records(self.kind, run_points(self.kind, points, jobs), self.x_label)


def results_to_records(kind: str, raw: Any, x_label: str = "x") -> Any:
    """Convert the executor's native return value to JSON-ready records.

    * ``sweep`` — ``[(x, ExperimentResult), ...]`` becomes a list of
      flat records each carrying ``x_label``;
    * ``comparison`` — ``{series: sweep}`` becomes ``{series: [records]}``;
    * ``timeline`` — one ``ExperimentResult`` becomes one record;
    * ``breakdown`` — ``{system: {phase: ms}}`` passes through;
    * ``scalar`` — ``{name: float}`` passes through.
    """
    from repro.bench import export

    if kind == "sweep":
        return export.sweep_to_records(raw, x_label)
    if kind == "comparison":
        return export.comparison_to_records(raw, x_label)
    if kind == "timeline":
        return export.result_to_record(raw)
    if kind in ("breakdown", "scalar"):
        return raw
    raise ConfigError(f"unknown spec kind {kind!r}")


__all__ = ["ExperimentSpec", "KINDS", "results_to_records"]
