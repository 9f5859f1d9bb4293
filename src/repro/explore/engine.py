"""The schedule-exploration engine.

:func:`explore` sweeps generated explore cases (each one
:class:`~repro.bench.config.ExperimentConfig`) over one or more systems,
re-running every ``repro.checkers`` oracle per execution. Two strategies:

* ``random`` — independent draws: fresh seeds, profile, and fault
  schedule every execution.
* ``coverage`` — keeps a corpus of cases whose *coverage signature*
  (per-oracle statuses, failure-reason vocabulary, and log-bucketed
  commit/abort counts — deliberately coarser than the run fingerprint,
  which is unique per case by construction) was novel, and biases new
  executions toward mutants of corpus members.

On the first oracle violation the engine delta-debugs the case to a
minimal counterexample (:func:`repro.explore.minimize.minimize`),
writes a ``*.schedule.json`` artifact, and verifies it replays: the
minimized case is executed twice and must produce byte-identical
fingerprints and the original failing-oracle set.

Multi-process sweeps reuse :func:`repro.bench.parallel.run_sweep` — a
case is a config, so workers reconstruct identical executions from it
alone. Every execution runs :func:`repro.faults.fault_run` of its case,
so recovery traffic drains past the fault horizon before the oracles
judge. Minimization and replay verification always run
in-process (they are sequential by nature).

When a trace collector is passed, the engine emits wall-second
``explore/execution`` and ``explore/minimize`` spans (same convention
as the ``report/*`` pipeline spans: they time the harness, not the
simulation).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bench.config import ExperimentConfig
from repro.errors import ConfigError
from repro.explore.case import Artifact, load_artifact, write_artifact
from repro.explore.generate import mutate_case, random_case
from repro.explore.minimize import minimize
from repro.faults import fault_run

STRATEGIES = ("random", "coverage")

# In coverage mode, the probability that a new execution mutates a
# corpus member instead of drawing a fresh random case.
MUTATE_PROBABILITY = 0.6


@dataclass(frozen=True)
class Execution:
    """One completed case: oracle outcomes plus coverage signature."""

    case: ExperimentConfig
    ok: bool
    failures: Tuple[str, ...]  # failing oracle names, sorted
    fingerprint: str
    signature: Tuple
    committed: int
    failed: int


@dataclass(frozen=True)
class ExploreOutcome:
    """What a call to :func:`explore` did and found."""

    strategy: str
    systems: Tuple[str, ...]
    executions: int
    unique_signatures: int
    violation: Optional[Artifact]
    artifact_path: Optional[str]
    minimize_executions: int
    replay_verified: Optional[bool]  # None when no violation was found

    @property
    def found(self) -> bool:
        return self.violation is not None


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a saved counterexample artifact."""

    artifact: Artifact
    fingerprint: str
    failures: Tuple[str, ...]
    deterministic: bool  # two fresh executions agreed with each other
    reproduced: bool  # ... and with the artifact's recorded outcome


def _signature(result) -> Tuple:
    report = result.check_report
    return (
        tuple((entry.name, entry.status) for entry in report.results),
        tuple(sorted(result.failure_reasons)),
        int(result.committed).bit_length(),
        int(result.failed).bit_length(),
    )


def _execution(case: ExperimentConfig, result) -> Execution:
    report = result.check_report
    return Execution(
        case=case,
        ok=report.ok,
        failures=tuple(sorted(entry.name for entry in report.results if not entry.ok)),
        fingerprint=result.fingerprint,
        signature=_signature(result),
        committed=result.committed,
        failed=result.failed,
    )


def run_case(case: ExperimentConfig) -> Execution:
    """Execute one case in-process and summarize its oracle outcomes."""
    from repro.bench.runner import run_experiment

    if not case.check:
        raise ConfigError("an explore case runs the oracles: it needs check=True")
    return _execution(case, run_experiment(fault_run(case)))


def _run_batch(cases: Sequence[ExperimentConfig], jobs: int) -> List[Optional[Execution]]:
    """Run a batch on ``jobs`` workers; ``None`` marks a crashed point.

    A point's exception does not abort exploration — the planted bugs
    never raise, but a genuinely buggy system under fuzzing might, and
    the sweep should keep probing the remaining cases.
    """
    from repro.bench.parallel import SweepFailure, run_sweep

    outcomes = run_sweep([fault_run(case) for case in cases], jobs=jobs)
    return [
        None if isinstance(outcome, SweepFailure) else _execution(case, outcome)
        for case, outcome in zip(cases, outcomes)
    ]


def explore(
    systems: Sequence[str],
    app: str = "voting",
    executions: int = 50,
    strategy: str = "random",
    seed: int = 0,
    duration: float = 20.0,
    scale: Optional[float] = None,
    jobs: int = 1,
    out_dir: str = ".",
    planted_bug: Optional[str] = None,
    minimize_budget: int = 40,
    collector=None,
) -> ExploreOutcome:
    """Search the interleaving space; stop at the first violation.

    Executions round-robin over ``systems``. Returns an
    :class:`ExploreOutcome`; when a violation is found it carries the
    minimized :class:`~repro.explore.case.Artifact`, the path of the
    written ``*.schedule.json``, and whether two verification replays
    of the minimized case were byte-identical.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; valid: {STRATEGIES}")
    if not systems:
        raise ConfigError("explore needs at least one system")
    rng = random.Random(f"explore:{seed}")
    t0 = time.perf_counter()
    corpus: List[ExperimentConfig] = []
    seen_signatures = set()
    spent = 0
    violation: Optional[Execution] = None

    def next_case(index: int) -> ExperimentConfig:
        system = systems[index % len(systems)]
        if (
            strategy == "coverage"
            and corpus
            and rng.random() < MUTATE_PROBABILITY
        ):
            parent = rng.choice([case for case in corpus if case.system == system] or corpus)
            return mutate_case(rng, parent)
        return random_case(
            rng,
            system=system,
            app=app,
            duration=duration,
            scale=scale,
            planted_bug=planted_bug,
        )

    batch_size = max(1, jobs)
    while spent < executions and violation is None:
        batch = [next_case(spent + offset) for offset in range(min(batch_size, executions - spent))]
        started = time.perf_counter()
        for case, execution in zip(batch, _run_batch(batch, batch_size)):
            spent += 1
            if execution is None:
                continue
            if collector is not None:
                collector.span(
                    "explore/execution",
                    started - t0,
                    time.perf_counter() - t0,
                    attrs={
                        "system": case.system,
                        "ok": execution.ok,
                        "novel": execution.signature not in seen_signatures,
                    },
                )
            if execution.signature not in seen_signatures:
                seen_signatures.add(execution.signature)
                if strategy == "coverage":
                    corpus.append(case)
            if not execution.ok:
                violation = execution
                break

    if violation is None:
        return ExploreOutcome(
            strategy=strategy,
            systems=tuple(systems),
            executions=spent,
            unique_signatures=len(seen_signatures),
            violation=None,
            artifact_path=None,
            minimize_executions=0,
            replay_verified=None,
        )

    # Minimize, persist, and verify the replay byte-for-byte.
    failing = frozenset(violation.failures)
    minimize_started = time.perf_counter()
    minimized, spent_minimizing = minimize(
        violation.case,
        failing,
        lambda candidate: frozenset(run_case(candidate).failures),
        budget=minimize_budget,
    )
    first = run_case(minimized)
    second = run_case(minimized)
    extra = spent_minimizing + 2  # the two verification replays
    if collector is not None:
        collector.span(
            "explore/minimize",
            minimize_started - t0,
            time.perf_counter() - t0,
            attrs={
                "executions": extra,
                "events_before": len(violation.case.fault_schedule),
                "events_after": len(minimized.fault_schedule),
            },
        )
    verified = (
        first.fingerprint == second.fingerprint
        and frozenset(first.failures) == failing
    )
    artifact = Artifact(
        case=minimized,
        fingerprint=first.fingerprint,
        failures=first.failures,
        executions=spent,
    )
    path = os.path.join(
        out_dir, f"{minimized.system}-seed{minimized.seed}.schedule.json"
    )
    write_artifact(path, artifact)
    return ExploreOutcome(
        strategy=strategy,
        systems=tuple(systems),
        executions=spent,
        unique_signatures=len(seen_signatures),
        violation=artifact,
        artifact_path=path,
        minimize_executions=extra,
        replay_verified=verified,
    )


def replay(path: str) -> ReplayResult:
    """Re-execute a saved counterexample and verify it byte-for-byte.

    Runs the artifact's case twice: the two executions must agree with
    each other (determinism) and with the artifact's recorded
    fingerprint and failing-oracle set (reproduction).
    """
    artifact = load_artifact(path)
    first = run_case(artifact.case)
    second = run_case(artifact.case)
    deterministic = first.fingerprint == second.fingerprint
    reproduced = (
        deterministic
        and first.fingerprint == artifact.fingerprint
        and frozenset(first.failures) == frozenset(artifact.failures)
    )
    return ReplayResult(
        artifact=artifact,
        fingerprint=first.fingerprint,
        failures=first.failures,
        deterministic=deterministic,
        reproduced=reproduced,
    )


__all__ = [
    "Execution",
    "ExploreOutcome",
    "ReplayResult",
    "STRATEGIES",
    "explore",
    "replay",
    "run_case",
]
