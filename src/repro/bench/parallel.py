"""Parallel sweep execution over independent experiment runs.

Every figure in the benchmark layer is a *sweep*: a list of
:class:`~repro.bench.config.ExperimentConfig` points that are run
independently and plotted together. The runs share nothing — each one
builds its own simulator, network, and RNG registry from the config's
seed — so they parallelize perfectly across processes.

:func:`run_sweep` fans a list of configs across a
``ProcessPoolExecutor`` and returns one outcome per config, **in
submission order** regardless of completion order. An outcome is either
the point's :class:`~repro.bench.metrics.ExperimentResult` or a
:class:`SweepFailure` describing why that point could not be produced;
a failing point never aborts the rest of the sweep.

Determinism
-----------

Parallel execution cannot change results: each run is a pure function
of its config (the simulator draws no wall-clock and no unseeded
randomness — see the event-loop contract in ``repro.sim.core``), and
collection order is fixed by submission order, not completion order.
``tests/bench/test_parallel.py`` asserts that a sweep's exported
records are identical under ``jobs=1`` and ``jobs=4``.

Worker-crash handling
---------------------

An ordinary exception inside a worker fails only its own point. A hard
worker death (segfault, OOM kill) breaks the whole pool, failing every
not-yet-collected point; those points are retried once in a fresh pool
so one bad run does not take down the tail of a long sweep. Points that
fail again are reported as failures and the sweep still completes.
"""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Union

from repro.bench.config import ExperimentConfig
from repro.bench.metrics import ExperimentResult
from repro.bench.runner import run_experiment
from repro.errors import SweepError


@dataclass(frozen=True)
class SweepFailure:
    """One sweep point that could not produce a result.

    ``index`` is the point's position in the submitted config list;
    ``error`` is the exception's ``repr`` and ``details`` the formatted
    traceback (empty when the worker died without one).
    """

    index: int
    config: ExperimentConfig
    error: str
    details: str = ""


SweepOutcome = Union[ExperimentResult, SweepFailure]


def _mp_context():
    # fork keeps worker startup cheap and inherits the parent's
    # interpreter state; fall back to the platform default (spawn on
    # macOS/Windows) where fork is unavailable.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform-dependent
        return multiprocessing.get_context()


def _run_point(config: ExperimentConfig) -> ExperimentResult:
    """Worker entry: run one experiment (top-level so it pickles under
    fork *and* spawn)."""
    return run_experiment(config)


def _failure(index: int, config: ExperimentConfig, exc: BaseException) -> SweepFailure:
    return SweepFailure(
        index=index,
        config=config,
        error=repr(exc),
        details="".join(traceback.format_exception(type(exc), exc, exc.__traceback__)),
    )


def _run_serial(indexed: Sequence[tuple]) -> dict:
    outcomes = {}
    for index, config in indexed:
        try:
            outcomes[index] = _run_point(config)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            outcomes[index] = _failure(index, config, exc)
    return outcomes


def _run_pool(indexed: Sequence[tuple], jobs: int) -> tuple[dict, list]:
    """One pool round. Returns (outcomes, points killed by a pool break)."""
    outcomes: dict = {}
    broken: list = []
    with ProcessPoolExecutor(max_workers=jobs, mp_context=_mp_context()) as pool:
        futures = [(index, config, pool.submit(_run_point, config)) for index, config in indexed]
        # Collect in submission order: deterministic result order and
        # deterministic attribution of failures, whatever the workers'
        # completion order was.
        for index, config, future in futures:
            try:
                outcomes[index] = future.result()
            except BrokenProcessPool as exc:
                broken.append((index, config, exc))
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                outcomes[index] = _failure(index, config, exc)
    return outcomes, broken


def run_sweep(
    configs: Iterable[ExperimentConfig],
    jobs: int = 1,
) -> List[SweepOutcome]:
    """Run every config; return outcomes in the order configs were given.

    ``jobs`` is the number of worker processes (capped at the number of
    points); ``1`` runs serially in-process with no pool at all. Each outcome is either an
    :class:`~repro.bench.metrics.ExperimentResult` or a
    :class:`SweepFailure` — use :func:`expect_results` when failures
    should raise.
    """
    config_list = list(configs)
    if jobs < 1:
        raise SweepError(f"jobs must be >= 1, got {jobs}")
    indexed = list(enumerate(config_list))
    jobs = min(jobs, len(indexed)) if indexed else 1
    if jobs == 1:
        outcomes = _run_serial(indexed)
    else:
        outcomes, broken = _run_pool(indexed, jobs)
        # A broken pool (a worker was killed outright) fails every
        # uncollected future, innocent points included. Retry each of
        # those points once in its own single-worker pool, so a point
        # that reliably kills its worker fails alone instead of taking
        # the retry round down with it.
        for index, config, exc in broken:
            retried, still_broken = _run_pool([(index, config)], 1)
            outcomes.update(retried)
            for retry_index, retry_config, retry_exc in still_broken:
                outcomes[retry_index] = _failure(retry_index, retry_config, retry_exc)
    return [outcomes[index] for index in range(len(config_list))]


def expect_results(outcomes: Sequence[SweepOutcome]) -> List[ExperimentResult]:
    """Unwrap outcomes, raising :class:`SweepError` if any point failed.

    The error message lists *every* failed point (the sweep already ran
    to completion), so one flaky point does not hide the others.
    """
    failures = [outcome for outcome in outcomes if isinstance(outcome, SweepFailure)]
    if failures:
        lines = [f"{len(failures)} of {len(outcomes)} sweep points failed:"]
        for failure in failures:
            lines.append(f"  point {failure.index}: {failure.error}")
            if failure.details:
                lines.append("    " + failure.details.strip().replace("\n", "\n    "))
        raise SweepError("\n".join(lines))
    return list(outcomes)


__all__ = [
    "SweepFailure",
    "SweepOutcome",
    "expect_results",
    "run_sweep",
]
