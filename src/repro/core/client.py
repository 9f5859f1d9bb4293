"""An OrderlessChain client (Section 4's transaction lifecycle).

A client submits a proposal to ``q`` organizations, collects
endorsements, checks that all endorsed write-sets are identical,
assembles and signs the transaction, sends it to ``q`` organizations,
and waits for ``q`` receipts. Clients keep a Lamport clock that is
incremented with every submitted proposal (Section 6).

Clients can be configured to be Byzantine (the four fault types of
Section 8) and, for Figure 8(b), to observe and avoid Byzantine
organizations: organizations that do not respond or whose endorsements
disagree with the majority get blacklisted and replaced on retry.

A client reads its protocol knobs from the run's
:class:`~repro.bench.config.ExperimentConfig`: ``max_retries``,
``avoid_byzantine``, ``org_weights`` and ``resilience``. Every wait of
the paper's client lasts ``TIMEOUT``; a resilient client
(docs/RESILIENCE.md) waits adaptive deadlines instead and solicits
``HEDGE`` organizations more than the quorum.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.byzantine import ByzantineClientConfig
from repro.core.organization import (
    MSG_COMMIT,
    MSG_ENDORSEMENT,
    MSG_PROPOSAL,
    MSG_READ,
    MSG_READ_RESPONSE,
    MSG_RECEIPT,
)
from repro.core.perf import PerfModel
from repro.core.policy import EndorsementPolicy
from repro.core.recording import TransactionRecorder
from repro.core.transaction import (
    Endorsement,
    Proposal,
    Receipt,
    Transaction,
    write_set_digest,
)
from repro.crdt.clock import LamportClock
from repro.crypto.identity import Identity
from repro.net.message import Message
from repro.net.network import Network
from repro.resilience import WORST_CASE_TIMEOUT, CircuitBreaker, RttEstimator
from repro.sim.core import Simulator
from repro.sim.events import AnyOf, Event

if TYPE_CHECKING:
    from repro.bench.config import ExperimentConfig

# The paper's client waits this long for each endorse, commit and read.
TIMEOUT = 3.0
# A resilient client solicits q + HEDGE organizations per attempt (still
# needing only q answers), so one slow or crashed organization cannot
# stall it. Retries re-target previously unused organizations first.
HEDGE = 1


def longest_pending(config: ExperimentConfig) -> float:
    """How long a transaction of a client of ``config`` can legitimately
    stay unresolved: a modify can wait out an endorse and a commit
    deadline once per attempt, plus one more deadline. A resilient
    client's deadlines are bounded by the jitter-inclusive worst case."""
    deadline = WORST_CASE_TIMEOUT if config.resilience else TIMEOUT
    return (config.max_retries + 1) * 2 * deadline + deadline


class _Pending:
    """Responses collected for one in-flight request.

    Responses are deduplicated by sender so a duplicated message (the
    Section 3 failure model allows duplication in transit) cannot
    satisfy the quorum with fewer distinct organizations. Arrival
    times are recorded for the RTT estimator (pure bookkeeping — no
    events, so untouched runs stay byte-identical).
    """

    def __init__(self, sim: Simulator, needed: int) -> None:
        self.needed = needed
        self.responses: List[Any] = []
        self.arrivals: List[float] = []
        self.senders: set = set()
        self._sim = sim
        self.event = Event(sim)

    def add(self, response: Any, sender: str) -> None:
        if sender in self.senders:
            return
        self.senders.add(sender)
        self.responses.append(response)
        self.arrivals.append(self._sim.now)
        if len(self.responses) >= self.needed and not self.event.triggered:
            self.event.trigger(self.responses)


class Client:
    """One client node."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        identity: Identity,
        policy: EndorsementPolicy,
        org_ids: Sequence[str],
        perf: PerfModel,
        rng: random.Random,
        jitter_rng: random.Random,
        config: ExperimentConfig,
        recorder: Optional[TransactionRecorder] = None,
        byzantine: Optional[ByzantineClientConfig] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.identity = identity
        self.policy = policy
        self.org_ids = list(org_ids)
        self.perf = perf
        self.rng = rng
        self.recorder = recorder if recorder is not None else TransactionRecorder()
        self.config = config
        self.byzantine = byzantine
        self.clock = LamportClock(identity.identifier)
        self.blacklist: set[str] = set()
        # (phase, proposal id) -> the responses its current attempt awaits.
        self._pending: Dict[Tuple[str, str], _Pending] = {}
        # Adaptive resilience state (docs/RESILIENCE.md); a fixed-timeout
        # client has no estimator and never creates a breaker. Deadline
        # jitter is drawn from its own stream, apart from protocol draws.
        self._jitter_rng = jitter_rng
        self._rtt = RttEstimator() if config.resilience else None
        self.breakers: Dict[str, CircuitBreaker] = {}
        network.register(self.client_id, self._on_message)

    @property
    def client_id(self) -> str:
        return self.identity.identifier

    # -- message handling ------------------------------------------------

    def _on_message(self, message: Message) -> None:
        if message.corrupted:
            return  # garbage fails the transport integrity check
        try:
            if message.msg_type == MSG_ENDORSEMENT:
                response = Endorsement.from_wire(message.body)
                org_id = response.org_id
                pending = self._pending.get(("endorse", response.proposal_id))
            elif message.msg_type == MSG_RECEIPT:
                response = Receipt.from_wire(message.body)
                org_id = response.org_id
                pending = self._pending.get(("commit", response.transaction_id))
            elif message.msg_type == MSG_READ_RESPONSE:
                response = message.body["value"]
                org_id = message.sender
                pending = self._pending.get(("read", message.body["proposal_id"]))
            else:
                return
        except (KeyError, TypeError, ValueError, OverflowError, AttributeError):
            return  # a malformed body from a hostile organization is dropped
        # A response counts for the organization that sent it: one that
        # stamps other org ids on its bodies must not fill a quorum alone.
        if pending is not None and org_id == message.sender:
            pending.add(response, sender=org_id)

    # -- organization selection ----------------------------------------------

    def _breaker(self, org_id: str) -> CircuitBreaker:
        breaker = self.breakers.get(org_id)
        if breaker is None:
            breaker = CircuitBreaker(
                org_id, clock=lambda: self.sim.now, on_transition=self._trace_breaker
            )
            self.breakers[org_id] = breaker
        return breaker

    def _select_orgs(self, count: int, avoid: Sequence[str] = ()) -> List[str]:
        candidates = [org for org in self.org_ids if org not in self.blacklist]
        if self.config.resilience:
            # Circuit breakers: skip orgs whose breaker is open (unless
            # that would leave us short of a quorum's worth of targets).
            healthy = [org for org in candidates if self._breaker(org).allows_request()]
            if len(healthy) >= count:
                candidates = healthy
        if len(candidates) < count:
            # Not enough trusted organizations left; fall back to all.
            candidates = list(self.org_ids)
        if self.config.org_weights is not None:
            weight_of = dict(zip(self.org_ids, self.config.org_weights))
            pool = list(candidates)
            chosen: List[str] = []
            while pool and len(chosen) < count:
                weights = [weight_of.get(org, 1.0) for org in pool]
                pick = self.rng.choices(pool, weights=weights, k=1)[0]
                pool.remove(pick)
                chosen.append(pick)
            return chosen
        if avoid:
            # Retry retargeting: prefer organizations not yet contacted
            # for this transaction (docs/RESILIENCE.md).
            avoided = set(avoid)
            fresh = [org for org in candidates if org not in avoided]
            if len(fresh) >= count:
                return self.rng.sample(fresh, count)
            rest = self.rng.sample(
                [org for org in candidates if org in avoided], count - len(fresh)
            )
            return fresh + rest
        return self.rng.sample(candidates, count)

    # -- tracing helpers ----------------------------------------------------------

    def _trace_breaker(self, org_id: str, old_state: str, new_state: str) -> None:
        trace = self.recorder.trace
        if trace is not None:
            trace.instant(
                "breaker/transition",
                self.sim.now,
                node=self.client_id,
                attrs={"org": org_id, "from": old_state, "to": new_state},
            )

    def _trace_wait(self, name: str, txn_id: str, started: float, attrs: Dict[str, Any]) -> None:
        """A client wait window (endorse, commit, read, or backoff)."""
        trace = self.recorder.trace
        if trace is not None:
            trace.span(name, started, self.sim.now, node=self.client_id, txn_id=txn_id, attrs=attrs)

    def _retry(self, txn_id: str, phase: str, started: float, attempt: int, deadline: float) -> None:
        """A timed-out attempt that will be retried with backoff."""
        attrs = {"attempt": attempt - 1, "deadline": round(deadline, 6)}
        self._trace_wait("client/backoff", txn_id, started, attrs)
        self.recorder.retried(txn_id, phase, attempt, self.sim.now)

    # -- the attempt step ---------------------------------------------------------
    #
    # Every phase is one pattern: pick targets, send, wait for the quorum
    # or the deadline, settle. ``_targets``, ``_deadline`` and ``_settle``
    # are the only code that tells the paper's fixed-timeout client (q
    # targets, fixed deadlines, no bookkeeping) from a resilient one.

    def _targets(self, q: int, used: set) -> List[str]:
        """The organizations one attempt solicits.

        A resilient client hedges: ``q + HEDGE`` targets (capped at n),
        preferring organizations not yet contacted in this phase.
        """
        if not self.config.resilience:
            return self._select_orgs(q)
        targets = self._select_orgs(min(len(self.org_ids), q + HEDGE), avoid=sorted(used))
        used.update(targets)
        return targets

    def _deadline(self, attempt: int) -> float:
        """The wait deadline for one attempt of any phase."""
        if self._rtt is None:
            return TIMEOUT
        return self._rtt.timeout_for(attempt, self._jitter_rng)

    def _settle(
        self, pending: _Pending, sent_at: float, seen: int, targets: Sequence[str], reached: bool
    ) -> None:
        """Feed one attempt's round-trips and outcomes to the RTT
        estimator and the circuit breakers."""
        if self._rtt is None:
            return
        for arrived in pending.arrivals[seen:]:
            self._rtt.observe(arrived - sent_at)
        responded = pending.senders
        # Quorum reached early: slower hedged targets are not failures,
        # they were simply not needed.
        for org_id in sorted(responded) if reached else targets:
            breaker = self._breaker(org_id)
            if org_id in responded:
                breaker.record_success()
            else:
                breaker.record_failure()

    def _attempt(
        self,
        phase: str,
        attempt: int,
        txn_id: str,
        pending: _Pending,
        targets: Sequence[str],
        message: Callable[[int, str], Message],
    ):
        """Send ``message(index, org)`` to each target and wait for the
        quorum or the deadline; returns ``(deadline, reached)``."""
        key = (phase, txn_id)
        self._pending[key] = pending
        sent_at = self.sim.now
        if self._rtt is not None:
            for org_id in targets:
                self._breaker(org_id).record_sent()
        for index, org_id in enumerate(targets):
            self.network.send(message(index, org_id))
        deadline = self._deadline(attempt)
        seen = len(pending.arrivals)
        winner = yield AnyOf(self.sim, [pending.event, self.sim.timeout(deadline)])
        # A Byzantine client may run two submits under one proposal id;
        # each attempt removes only its own entry.
        if self._pending.get(key) is pending:
            del self._pending[key]
        reached = winner is pending.event
        self._settle(pending, sent_at, seen, targets, reached)
        return deadline, reached

    # -- Byzantine helpers --------------------------------------------------------

    def _misbehaves(self, fault: str) -> bool:
        return (
            self.byzantine is not None
            and fault in self.byzantine.faults
            and self.rng.random() < self.byzantine.fault_probability
        )

    # -- modify transactions -----------------------------------------------------

    def submit_modify(self, contract_id: str, function: str, params: Dict[str, Any]):
        """Run one modify transaction through both phases.

        A generator to be run as a simulated process; returns ``True``
        on successful commit (q valid receipts).
        """
        q = self.policy.quorum
        no_increment = self._misbehaves("no_increment")
        clock = self.clock.peek() if no_increment else self.clock.tick()
        proposal = Proposal(self.client_id, contract_id, function, dict(params), clock)
        txn_id = proposal.proposal_id
        self.recorder.submitted(txn_id, self.client_id, "modify", self.sim.now)
        split_clock = self._misbehaves("split_clock")

        def proposal_to(index: int, org_id: str) -> Message:
            body = proposal.to_wire()
            if split_clock and index > 0:
                # Different logical timestamps to different orgs.
                body = dict(body)
                body["clock"] = {"client_id": self.client_id, "counter": clock.counter + index}
            return Message(
                sender=self.client_id,
                recipient=org_id,
                msg_type=MSG_PROPOSAL,
                body=body,
                size_bytes=self.perf.proposal_bytes,
            )

        used: set = set()
        attempt = 0
        while True:
            started = self.sim.now
            targets = self._targets(q, used)
            pending = _Pending(self.sim, needed=q)
            deadline, _ = yield from self._attempt(
                "endorse", attempt, txn_id, pending, targets, proposal_to
            )
            endorsements: List[Endorsement] = list(pending.responses)
            self._trace_wait(
                "client/endorse_wait",
                txn_id,
                started,
                {"attempt": attempt, "endorsements": len(endorsements)},
            )

            majority = self._majority_write_set(endorsements)
            if majority is not None and len(majority) >= q:
                break  # enough identical endorsements
            if self.config.avoid_byzantine:
                self._blacklist_offenders(targets, endorsements, majority)
            attempt += 1
            if attempt > self.config.max_retries:
                self.recorder.failed(txn_id, self.sim.now, "endorsement failure")
                return False
            self._retry(txn_id, "endorse", started, attempt, deadline)

        if self._misbehaves("proposal_only"):
            # DDoS-style fault: never send the commit. No lasting side
            # effects on the system (Section 8, fault 1).
            self.recorder.failed(txn_id, self.sim.now, "byzantine: proposal only")
            return False

        write_set = majority[0].write_set
        transaction = Transaction.assemble(
            self.identity, proposal, write_set, list(majority)
        )
        if self._misbehaves("tamper"):
            tampered = [dict(op) for op in write_set]
            for op in tampered:
                if op["value_type"] == "gcounter":
                    op["value"] = (op["value"] or 0) + 999
                else:
                    op["value"] = "<client-tampered>"
            transaction = Transaction.assemble(
                self.identity, proposal, tampered, list(majority)
            )

        partial_commit = self._misbehaves("partial_commit")
        wire = transaction.to_wire()

        def commit_to(index: int, org_id: str) -> Message:
            return Message(
                sender=self.client_id,
                recipient=org_id,
                msg_type=MSG_COMMIT,
                body=wire,
                size_bytes=transaction.wire_size(),
            )

        # Receipts accumulate across attempts (deduped by sender) and
        # each retry re-targets fresh organizations. The transaction
        # commits durably on the org side, so re-sending the same signed
        # wire is safe — MSG_COMMIT is idempotent. A partial-commit
        # client contacts one organization and waits for its receipt
        # only (Section 8, fault 2).
        pending = _Pending(self.sim, needed=1 if partial_commit else q)
        retries = self.config.max_retries if self.config.resilience else 0
        used = set()
        commit_started = self.sim.now
        attempt = 0
        while True:
            started = self.sim.now
            targets = self._targets(q, used)
            if partial_commit:
                targets = targets[:1]
            deadline, reached = yield from self._attempt(
                "commit", attempt, txn_id, pending, targets, commit_to
            )
            attempt += 1
            if reached or attempt > retries:
                break
            self._retry(txn_id, "commit", started, attempt, deadline)
        receipts: List[Receipt] = list(pending.responses)
        self._trace_wait("client/commit_wait", txn_id, commit_started, {"receipts": len(receipts)})

        valid_orgs = {r.org_id for r in receipts if r.valid}
        rejections = [r for r in receipts if not r.valid]
        if len(valid_orgs) >= q:
            self.recorder.committed(txn_id, self.sim.now)
            return True
        self.recorder.failed(txn_id, self.sim.now, "rejected" if rejections else "commit timeout")
        return False

    @staticmethod
    def _majority_write_set(
        endorsements: List[Endorsement],
    ) -> Optional[List[Endorsement]]:
        """Largest group of endorsements with identical write-sets."""
        if not endorsements:
            return None
        groups: Dict[str, List[Endorsement]] = {}
        for endorsement in endorsements:
            groups.setdefault(write_set_digest(endorsement.write_set), []).append(endorsement)
        return max(groups.values(), key=len)

    def _blacklist_offenders(
        self,
        targets: Sequence[str],
        endorsements: List[Endorsement],
        majority: Optional[List[Endorsement]],
    ) -> None:
        """Figure 8(b): avoid orgs that did not respond or disagreed."""
        agreeing = {e.org_id for e in (majority or [])}
        for org_id in targets:
            # Both silent orgs and disagreeing responders are offenders;
            # only members of the majority group are in the clear.
            if org_id not in agreeing:
                self.blacklist.add(org_id)

    # -- read transactions -----------------------------------------------------------

    def submit_read(self, contract_id: str, function: str, params: Dict[str, Any]):
        """Run one read transaction; returns the responses (or None)."""
        q = self.policy.quorum
        clock = self.clock.tick()
        proposal = Proposal(self.client_id, contract_id, function, dict(params), clock)
        txn_id = proposal.proposal_id
        self.recorder.submitted(txn_id, self.client_id, "read", self.sim.now)

        def read_to(index: int, org_id: str) -> Message:
            return Message(
                sender=self.client_id,
                recipient=org_id,
                msg_type=MSG_READ,
                body=proposal.to_wire(),
                size_bytes=self.perf.proposal_bytes,
            )

        started = self.sim.now
        targets = self._targets(q, set())
        pending = _Pending(self.sim, needed=q)
        _, reached = yield from self._attempt("read", 0, txn_id, pending, targets, read_to)
        values = list(pending.responses)
        self._trace_wait("client/read_wait", txn_id, started, {"responses": len(values)})
        if reached:
            self.recorder.committed(txn_id, self.sim.now)
            return values
        self.recorder.failed(txn_id, self.sim.now, "read timeout")
        return None


__all__ = ["Client", "longest_pending"]
