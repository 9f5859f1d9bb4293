"""The invariant oracles.

Each oracle implements ``check(net, ctx) -> CheckResult`` over a built
network's node surface (``repro.faults`` drives the same one). Oracles
are read-only (they snapshot, hash, and verify — never schedule or
mutate), so they can run mid-simulation between events as well as at
quiescence. ``ctx.quiescent`` tells time-sensitive oracles
(convergence, liveness) whether the run has drained; mid-run they
skip rather than report transient divergence as a failure.

Adding an oracle: subclass nothing — provide ``name`` and ``check``,
then pass it in ``run_checkers(..., checkers=[...])`` or extend
:func:`default_checkers`. See ``docs/FAULTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, List, Optional, Sequence

from repro.checkers.report import FAIL, PASS, SKIP, CheckReport, CheckResult
from repro.crypto.hashing import sha256_hex
from repro.faults.schedule import FaultSchedule


@dataclass(frozen=True)
class CheckContext:
    """What the oracles need to know about the run they are judging."""

    quiescent: bool = True
    byzantine_ids: FrozenSet[str] = frozenset()
    crashed_ids: FrozenSet[str] = frozenset()
    partitioned: bool = False  # a partition is still in place
    fault_horizon: float = 0.0  # time of the last scheduled fault effect

    def honest_alive(self, node_ids: Sequence[str]) -> List[str]:
        return [
            node_id
            for node_id in node_ids
            if node_id not in self.byzantine_ids and node_id not in self.crashed_ids
        ]


class ConvergenceChecker:
    """Honest, alive nodes hold identical canonical state bytes.

    The paper's Theorem 1 (strong eventual consistency): organizations
    that saw the same set of valid transactions converge, regardless
    of order. At quiescence — after gossip, anti-entropy, and the
    baselines' gap repair have drained — every honest, alive node must
    therefore hash to the same state.
    """

    name = "convergence"

    def check(self, net: Any, ctx: CheckContext) -> CheckResult:
        if not ctx.quiescent:
            return CheckResult(self.name, SKIP, "only checked at quiescence")
        if ctx.partitioned:
            return CheckResult(
                self.name, SKIP, "partition still in place; divergence is expected"
            )
        nodes = ctx.honest_alive(net.node_ids)
        if len(nodes) < 2:
            return CheckResult(self.name, SKIP, "fewer than two honest alive nodes")
        digests = {node_id: sha256_hex(net.node(node_id).state_snapshot()) for node_id in nodes}
        distinct = sorted(set(digests.values()))
        if len(distinct) == 1:
            return CheckResult(
                self.name, PASS, f"{len(nodes)} nodes at state {distinct[0][:12]}"
            )
        violations = [f"{node_id}: {digest}" for node_id, digest in sorted(digests.items())]
        return CheckResult(
            self.name,
            FAIL,
            f"{len(distinct)} distinct states across {len(nodes)} honest alive nodes",
            violations,
        )


class LedgerIntegrityChecker:
    """Every hash-chain ledger verifies end to end (Definition 4.2).

    Applies to systems that keep a hash-chain ledger (OrderlessChain);
    others skip. Runs on *all* nodes, including crashed and Byzantine
    ones — a crash must never corrupt the chain that survived it.
    """

    name = "ledger-integrity"

    def check(self, net: Any, ctx: CheckContext) -> CheckResult:
        ledgers = net.ledgers()
        if not ledgers:
            return CheckResult(self.name, SKIP, f"{net.system} keeps no hash-chain ledger")
        violations: List[str] = []
        for node_id, ledger in sorted(ledgers.items()):
            try:
                ledger.verify_integrity()
            except Exception as exc:  # noqa: BLE001 - verdict, not control flow
                violations.append(f"{node_id}: {type(exc).__name__}: {exc}")
        if violations:
            return CheckResult(
                self.name, FAIL, f"{len(violations)} corrupt ledgers", violations
            )
        return CheckResult(self.name, PASS, f"{len(ledgers)} ledgers verified")


def _plain_copy(value: Any) -> Any:
    """Deep copy of a wire tree as plain dicts and lists: decoding it
    re-parses the content and shares no memo with the protocol."""
    if isinstance(value, dict):
        return {key: _plain_copy(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain_copy(item) for item in value]
    return value


class PolicySafetyChecker:
    """No committed transaction lacks a valid, honest-capable quorum.

    Re-verifies, for every transaction an honest node committed as
    valid, that the endorsement policy is satisfied by *valid*
    endorsement signatures over the transaction's own write-set digest
    (Definition 3.2). Additionally — using the experiment's ground
    truth of which organizations were configured Byzantine — it flags
    any committed transaction whose valid endorsers are Byzantine
    organizations only: with ≤ f Byzantine orgs and q > f such a
    quorum can only exist if the policy was subverted, and it is
    exactly what a >f-Byzantine negative test must detect.
    """

    name = "policy-safety"

    def check(self, net: Any, ctx: CheckContext) -> CheckResult:
        if net.system != "orderlesschain":
            return CheckResult(
                self.name, SKIP, f"{net.system} has no endorsement policy to audit"
            )
        from repro.core.transaction import Transaction

        ca = net.ca
        policy = net.policy
        violations: List[str] = []
        audited = 0
        for node_id in ctx.honest_alive(net.node_ids):
            valid = net.node(node_id).ledger.valid
            for txn_id in sorted(valid):
                wire = valid[txn_id].payload
                audited += 1
                transaction = Transaction.from_wire(_plain_copy(wire))
                _, payload = transaction.signed_payloads()
                valid_endorsers = set()
                for endorsement in transaction.endorsements:
                    enrolled = (
                        ca.is_enrolled(endorsement.org_id)
                        and ca.certificate_of(endorsement.org_id).role == "organization"
                    )
                    if enrolled and ca.verify(
                        endorsement.org_id, payload, endorsement.signature
                    ):
                        valid_endorsers.add(endorsement.org_id)
                if not policy.satisfied_by(len(valid_endorsers)):
                    violations.append(
                        f"{node_id} committed {txn_id} with only "
                        f"{len(valid_endorsers)} valid endorsements (policy {policy})"
                    )
                elif ctx.byzantine_ids and valid_endorsers <= ctx.byzantine_ids:
                    violations.append(
                        f"{node_id} committed {txn_id} endorsed exclusively by "
                        f"Byzantine orgs {sorted(valid_endorsers)}"
                    )
        if violations:
            return CheckResult(
                self.name,
                FAIL,
                f"{len(violations)} unsafe commits out of {audited} audited",
                violations,
            )
        return CheckResult(self.name, PASS, f"{audited} committed transactions audited")


class LivenessChecker:
    """Transactions resolve, and progress resumes after faults heal.

    Two obligations, both ground-truth from the transaction recorder:

    * no transaction stays unresolved (neither committed nor failed)
      longer than the client's own timeout budget
      (``net.pending_grace()``) — an infinite hang is a liveness
      bug even where a timeout-and-fail is acceptable;
    * if transactions were submitted after the last fault effect ended
      (``ctx.fault_horizon``), at least one commit must also land
      after it — the system recovered rather than wedged.
    """

    name = "liveness"

    def check(self, net: Any, ctx: CheckContext) -> CheckResult:
        if not ctx.quiescent:
            return CheckResult(self.name, SKIP, "only checked at quiescence")
        now = net.sim.now
        grace = net.pending_grace()
        records = net.recorder.records
        violations: List[str] = []
        for txn_id, record in sorted(records.items()):
            unresolved = record.committed_at is None and record.failed_at is None
            if unresolved and now - record.submitted_at > grace:
                violations.append(
                    f"{txn_id} submitted at {record.submitted_at:.3f} still "
                    f"unresolved after {now - record.submitted_at:.1f}s (grace {grace:.1f}s)"
                )
        submitted_after = sum(
            1 for r in records.values() if r.submitted_at > ctx.fault_horizon
        )
        committed_after = sum(
            1
            for r in records.values()
            if r.committed_at is not None and r.committed_at > ctx.fault_horizon
        )
        if submitted_after and not committed_after and not ctx.partitioned:
            violations.append(
                f"{submitted_after} transactions submitted after the fault horizon "
                f"(t={ctx.fault_horizon:.3f}) but none committed after it"
            )
        if violations:
            return CheckResult(self.name, FAIL, f"{len(violations)} liveness violations", violations)
        detail = f"{len(records)} transactions; {committed_after} commits past the fault horizon"
        return CheckResult(self.name, PASS, detail)


class NoDuplicateCommitChecker:
    """No ledger holds the same valid transaction twice.

    Retried commits (the adaptive resilience layer re-sends the same
    signed transaction wire to fresh organizations, and the Section 3
    failure model allows duplication in transit) must be absorbed by
    the organizations' dedup path — a transaction that lands in the
    hash chain as *valid* more than once would double-apply its CRDT
    operations on replay. Runs on all nodes, crashed ones included.
    """

    name = "no-duplicate-commit"

    def check(self, net: Any, ctx: CheckContext) -> CheckResult:
        ledgers = net.ledgers()
        if not ledgers:
            return CheckResult(self.name, SKIP, f"{net.system} keeps no hash-chain ledger")
        violations: List[str] = []
        audited = 0
        for node_id, ledger in sorted(ledgers.items()):
            counts: dict = {}
            for block in ledger.log:
                if not block.valid:
                    continue
                try:
                    proposal = block.payload["proposal"]
                    txn_id = f"{proposal['client_id']}:{proposal['clock']['counter']}"
                except (KeyError, TypeError):
                    continue  # malformed payload; ledger-integrity's case
                counts[txn_id] = counts.get(txn_id, 0) + 1
            audited += len(counts)
            for txn_id, count in sorted(counts.items()):
                if count > 1:
                    violations.append(
                        f"{node_id}: {txn_id} committed as valid {count} times"
                    )
        if violations:
            return CheckResult(
                self.name, FAIL, f"{len(violations)} duplicated commits", violations
            )
        return CheckResult(self.name, PASS, f"{audited} valid commits, all unique")


class AvailabilityChecker:
    """The run made useful progress: enough submissions committed.

    A coarse ratio oracle over the transaction recorder's ground
    truth. The default threshold is deliberately lenient (a chaos
    schedule may legitimately fail most transactions submitted into a
    partition); resilience experiments instantiate it with stricter
    thresholds to assert the adaptive layer's availability win.
    """

    name = "availability"

    def __init__(self, min_commit_ratio: float = 0.05) -> None:
        self.min_commit_ratio = min_commit_ratio

    def check(self, net: Any, ctx: CheckContext) -> CheckResult:
        if not ctx.quiescent:
            return CheckResult(self.name, SKIP, "only checked at quiescence")
        records = net.recorder.records
        if not records:
            return CheckResult(self.name, SKIP, "no transactions submitted")
        committed = sum(1 for r in records.values() if r.committed_at is not None)
        ratio = committed / len(records)
        detail = (
            f"{committed}/{len(records)} committed "
            f"({ratio:.1%}, floor {self.min_commit_ratio:.1%})"
        )
        if ratio < self.min_commit_ratio:
            return CheckResult(self.name, FAIL, detail)
        return CheckResult(self.name, PASS, detail)


def default_checkers() -> List[Any]:
    return [
        ConvergenceChecker(),
        LedgerIntegrityChecker(),
        PolicySafetyChecker(),
        LivenessChecker(),
        NoDuplicateCommitChecker(),
        AvailabilityChecker(),
    ]


def run_checkers(
    net: Any,
    schedule: FaultSchedule = FaultSchedule(),
    quiescent: bool = True,
    byzantine_ids: Optional[FrozenSet[str]] = None,
    checkers: Optional[Sequence[Any]] = None,
) -> CheckReport:
    """Run the oracles against a (usually finished) run.

    ``schedule`` — derives which nodes the schedule left crashed,
    whether a partition is still in place, and the fault horizon for
    the liveness probe (the empty default: none, no, 0.0).
    ``byzantine_ids`` defaults to the network's ground truth
    (organizations with a Byzantine config).
    """
    if byzantine_ids is None:
        byzantine_ids = net.byzantine_ids()
    ctx = CheckContext(
        quiescent=quiescent,
        byzantine_ids=frozenset(byzantine_ids),
        crashed_ids=schedule.crashed_at_end(),
        partitioned=schedule.partitioned_at_end(),
        fault_horizon=schedule.horizon,
    )
    report = CheckReport(system=net.system, checked_at=net.sim.now, quiescent=quiescent)
    for checker in checkers if checkers is not None else default_checkers():
        report.results.append(checker.check(net, ctx))
    return report


__all__ = [
    "AvailabilityChecker",
    "CheckContext",
    "ConvergenceChecker",
    "LedgerIntegrityChecker",
    "LivenessChecker",
    "NoDuplicateCommitChecker",
    "PolicySafetyChecker",
    "default_checkers",
    "run_checkers",
]
