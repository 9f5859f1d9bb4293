"""repro.api — the stable public facade.

One import for the four things users actually do, spanning the
subpackages without making callers learn their layout:

* :func:`build_network` — construct the fully wired network of any
  configured system (contracts, channels, clients) without running it;
* :func:`run_experiment` — build *any* configured system, drive its
  workload, and measure (:class:`~repro.bench.metrics.ExperimentResult`);
* :func:`explore` — fuzz transaction interleavings and fault schedules
  over the deterministic simulator, oracle-checking every execution;
* :func:`report` — regenerate (or drift-check) the paper's
  figure/table catalog.

The configuration types ride along: :class:`ExperimentConfig` is the
one run description (``channels=(ChannelSpec(...), ...)`` deploys
several applications on one network), and every network — the
:class:`OrderlessChainNetwork` a library user builds by hand included —
is built from it directly (see docs/API.md).

Everything exported here is covered by the public-API surface snapshot
test (``tests/bench/test_api_surface.py``): adding a name is a
deliberate snapshot update, removing or renaming one fails tier-1.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.bench.config import ChannelSpec, ExperimentConfig
from repro.bench.metrics import ExperimentResult
from repro.bench.runner import build_network, run_experiment
from repro.core.system import OrderlessChainNetwork
from repro.explore import ExploreOutcome, explore


def report(
    figures: Optional[Sequence[str]] = None,
    jobs: int = 1,
    quick: bool = False,
    check: bool = False,
    echo: Any = print,
    **kwargs: Any,
) -> "Any":
    """Regenerate (or, with ``check=True``, drift-check) the catalog.

    A thin wrapper over :func:`repro.report.pipeline.run_report` that
    keeps the report machinery out of import-time dependencies; extra
    keyword arguments (``experiments_md``, ``cache_dir``, ...) pass
    through. Returns the pipeline's ``ReportOutcome`` — inspect
    ``exit_code`` (non-zero on drift or failed runs) and ``runs``.
    """
    from repro.report.pipeline import run_report

    return run_report(
        figures=figures, jobs=jobs, quick=quick, check=check, echo=echo, **kwargs
    )


__all__ = [
    "ChannelSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "ExploreOutcome",
    "OrderlessChainNetwork",
    "build_network",
    "explore",
    "report",
    "run_experiment",
]
