"""System-wide invariant oracles.

The checkers turn the simulator into a correctness-testing rig: after
(or during) a run — typically one driven through a
``repro.faults.FaultSchedule`` — they machine-check the properties the
paper claims (Sections 5–8):

* **Convergence** — all honest, alive organizations hold the same
  committed set and object values (baselines: the same versioned state).
* **Ledger integrity** — every hash-chain ledger verifies end to end.
* **Policy safety** — no committed transaction lacks a valid
  endorsement quorum, and with ≤ f Byzantine organizations no quorum
  consists of Byzantine endorsers only.
* **Liveness** — submitted transactions resolve (commit or fail)
  within the client's own timeout budget, and progress resumes after
  the last fault heals.
* **No duplicate commit** — no ledger records the same valid
  transaction twice, however often clients re-send it (the adaptive
  resilience layer's retries lean on this — docs/RESILIENCE.md).
* **Availability** — enough of what was submitted actually committed
  (lenient by default; resilience experiments tighten the floor).

Run them with :func:`run_checkers` against any of the five built
networks (through the same node surface the fault engine drives);
the result is a :class:`~repro.checkers.report.CheckReport` whose
``format()`` is the diagnosable failure report the chaos tests and the
CLI print. See ``docs/FAULTS.md``.
"""

from repro.checkers.fingerprint import run_fingerprint, state_fingerprints
from repro.checkers.oracles import (
    AvailabilityChecker,
    CheckContext,
    ConvergenceChecker,
    LedgerIntegrityChecker,
    LivenessChecker,
    NoDuplicateCommitChecker,
    PolicySafetyChecker,
    default_checkers,
    run_checkers,
)
from repro.checkers.report import CheckReport, CheckResult

__all__ = [
    "AvailabilityChecker",
    "CheckContext",
    "CheckReport",
    "CheckResult",
    "ConvergenceChecker",
    "LedgerIntegrityChecker",
    "LivenessChecker",
    "NoDuplicateCommitChecker",
    "PolicySafetyChecker",
    "default_checkers",
    "run_checkers",
    "run_fingerprint",
    "state_fingerprints",
]
