"""Schedule exploration: interleaving fuzzing over the deterministic sim.

The paper's safety claims (convergence, ledger integrity, endorsement
-policy safety) quantify over *any* delivery order of transactions;
``repro.explore`` searches that space instead of trusting a handful of
golden seeds. An explore case is one
:class:`~repro.bench.config.ExperimentConfig`: it fixes every choice
point of one execution — base seed, controlled-nondeterminism profile
(``explore``, :mod:`repro.sim.nondeterminism`), and a generated
``fault_schedule`` — so each explored interleaving is exactly
replayable; the engine
(:func:`~repro.explore.engine.explore`) sweeps cases with a random or
coverage-guided strategy, re-runs every ``repro.checkers`` oracle per
execution, delta-debugs any violation down to a minimal counterexample
(:mod:`repro.explore.minimize`), and emits a ``*.schedule.json``
artifact whose replay is verified byte-identical by fingerprint.

See docs/TESTING.md for the workflow and ``python -m repro explore``
for the CLI.
"""

from repro.explore.case import Artifact, load_artifact, write_artifact
from repro.explore.engine import ExploreOutcome, ReplayResult, explore, replay, run_case
from repro.explore.generate import ends_clean, mutate_case, random_case, random_fault_schedule
from repro.explore.minimize import minimize
from repro.explore.plant import PLANTED_BUGS, planted

__all__ = [
    "Artifact",
    "ExploreOutcome",
    "PLANTED_BUGS",
    "ReplayResult",
    "ends_clean",
    "explore",
    "load_artifact",
    "minimize",
    "mutate_case",
    "planted",
    "random_case",
    "random_fault_schedule",
    "replay",
    "run_case",
    "write_artifact",
]
