"""Paper-regeneration pipeline: the experiment catalog, result cache,
renderers, and the ``python -m repro report`` engine.

See docs/REPORT.md for the user-facing guide. The subpackage layout:

* :mod:`repro.report.spec` — :class:`ExperimentSpec` and spec hashing;
* :mod:`repro.report.catalog` — one spec per paper figure/table;
* :mod:`repro.report.checks` — named shape assertions and verdicts;
* :mod:`repro.report.cache` — resumable per-experiment JSON artifacts;
* :mod:`repro.report.render` — EXPERIMENTS.md sections and CSV;
* :mod:`repro.report.manifest` — the ``experiments.json`` writer;
* :mod:`repro.report.envinfo` — the volatile environment block;
* :mod:`repro.report.pipeline` — :func:`run_report`, the orchestrator.
"""

from repro.report.cache import ResultCache
from repro.report.catalog import CATALOG, all_specs, get_spec, select_specs
from repro.report.checks import CheckOutcome, run_checks, verdict
from repro.report.envinfo import environment_info, strip_environment
from repro.report.pipeline import ReportOutcome, run_report
from repro.report.spec import ExperimentSpec

__all__ = [
    "CATALOG",
    "CheckOutcome",
    "ExperimentSpec",
    "ReportOutcome",
    "ResultCache",
    "all_specs",
    "environment_info",
    "get_spec",
    "run_checks",
    "run_report",
    "select_specs",
    "strip_environment",
    "verdict",
]
