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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

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
from repro.resilience import CircuitBreaker, ResilienceConfig, RttEstimator
from repro.sim.core import Simulator
from repro.sim.events import AnyOf, Event


@dataclass
class ClientConfig:
    """Client-side protocol knobs."""

    proposal_timeout: float = 3.0
    commit_timeout: float = 3.0
    read_timeout: float = 3.0
    max_retries: int = 0
    avoid_byzantine: bool = False  # Figure 8(b): blacklist misbehaving orgs
    org_weights: Optional[Sequence[float]] = None  # config 8: skewed load
    # Adaptive resilience (docs/RESILIENCE.md): RTT-aware deadlines,
    # hedged solicitation, and per-org circuit breakers. None keeps the
    # fixed timeouts above and the legacy event order byte-identical.
    resilience: Optional[ResilienceConfig] = None


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
        self._sim = sim
        self._senders: set = set()
        self.event = Event(sim)

    def add(self, response: Any, sender: Any = None) -> None:
        if sender is not None:
            if sender in self._senders:
                return
            self._senders.add(sender)
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
        recorder: Optional[TransactionRecorder] = None,
        config: Optional[ClientConfig] = None,
        byzantine: Optional[ByzantineClientConfig] = None,
        resilience_rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.identity = identity
        self.policy = policy
        self.org_ids = list(org_ids)
        self.perf = perf
        self.rng = rng
        self.recorder = recorder if recorder is not None else TransactionRecorder()
        self.config = config or ClientConfig()
        self.byzantine = byzantine
        self.clock = LamportClock(identity.identifier)
        self.blacklist: set[str] = set()
        self._pending_endorsements: Dict[str, _Pending] = {}
        self._pending_receipts: Dict[str, _Pending] = {}
        self._pending_reads: Dict[str, _Pending] = {}
        # Adaptive resilience state (None-resilience clients never touch
        # any of this, keeping the legacy event order byte-identical).
        # Jitter draws come from a dedicated stream so resilience-on
        # runs are deterministic per seed (docs/RESILIENCE.md).
        self._res_rng = resilience_rng if resilience_rng is not None else rng
        self._rtt = (
            RttEstimator(self.config.resilience)
            if self.config.resilience is not None
            else None
        )
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
                pending = self._pending_endorsements.get(response.proposal_id)
            elif message.msg_type == MSG_RECEIPT:
                response = Receipt.from_wire(message.body)
                org_id = response.org_id
                pending = self._pending_receipts.get(response.transaction_id)
            elif message.msg_type == MSG_READ_RESPONSE:
                response = message.body["value"]
                org_id = message.sender
                pending = self._pending_reads.get(message.body["proposal_id"])
            else:
                return
        except (KeyError, TypeError, ValueError, AttributeError):
            return  # a malformed body from a hostile organization is dropped
        # A response counts for the organization that sent it: one that
        # stamps other org ids on its bodies must not fill a quorum alone.
        if pending is not None and org_id == message.sender:
            pending.add(response, sender=org_id)

    # -- organization selection ----------------------------------------------

    def _breaker(self, org_id: str) -> CircuitBreaker:
        breaker = self.breakers.get(org_id)
        if breaker is None:
            res = self.config.resilience or ResilienceConfig()
            breaker = CircuitBreaker(
                org_id,
                threshold=res.breaker_threshold,
                cooldown=res.breaker_cooldown,
                probes=res.breaker_probes,
                clock=lambda: self.sim.now,
                on_transition=self._trace_breaker,
            )
            self.breakers[org_id] = breaker
        return breaker

    def _select_orgs(self, count: int, avoid: Sequence[str] = ()) -> List[str]:
        candidates = [org for org in self.org_ids if org not in self.blacklist]
        if self.config.resilience is not None:
            # Circuit breakers: skip orgs whose breaker is open (unless
            # that would leave us short of a quorum's worth of targets).
            healthy = [org for org in candidates if self._breaker(org).allows_request()]
            if len(healthy) >= count:
                candidates = healthy
        if len(candidates) < count:
            # Not enough trusted organizations left; fall back to all.
            candidates = list(self.org_ids)
        if self.config.org_weights is not None and len(self.config.org_weights) == len(
            self.org_ids
        ):
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

    def _trace_backoff(self, txn_id: str, started: float, attempt: int, deadline: float) -> None:
        """A timed-out wait window that will be retried with backoff."""
        self._trace_wait(
            "client/backoff", txn_id, started, {"attempt": attempt, "deadline": round(deadline, 6)}
        )

    # -- adaptive resilience helpers ----------------------------------------------

    def _deadline(self, phase: str, attempt: int) -> float:
        """The wait deadline for one attempt of one phase."""
        res = self.config.resilience
        if res is None or self._rtt is None:
            return {
                "endorse": self.config.proposal_timeout,
                "commit": self.config.commit_timeout,
                "read": self.config.read_timeout,
            }[phase]
        return self._rtt.timeout_for(attempt, self._res_rng)

    def _observe_rtts(self, pending: _Pending, sent_at: float, seen: int = 0) -> None:
        """Feed round-trips measured since ``sent_at`` to the estimator."""
        if self._rtt is None:
            return
        for arrived in pending.arrivals[seen:]:
            self._rtt.observe(arrived - sent_at)

    def _record_attempt_outcome(self, targets: Sequence[str], responded: set) -> None:
        """Update circuit breakers after one solicitation attempt."""
        if self.config.resilience is None:
            return
        for org_id in targets:
            breaker = self._breaker(org_id)
            if org_id in responded:
                breaker.record_success()
            else:
                breaker.record_failure()

    def _hedged_count(self, q: int) -> int:
        res = self.config.resilience
        if res is None:
            return q
        return min(len(self.org_ids), q + res.hedge)

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

        res = self.config.resilience
        used: set = set()  # orgs contacted so far (resilience retargeting)
        attempt = 0
        while True:
            attempt_started = self.sim.now
            if res is not None:
                # Hedged solicitation: contact q + hedge organizations,
                # preferring ones not yet tried for this transaction.
                targets = self._select_orgs(self._hedged_count(q), avoid=sorted(used))
                used.update(targets)
                for org_id in targets:
                    self._breaker(org_id).record_sent()
            else:
                targets = self._select_orgs(q)
            pending = _Pending(self.sim, needed=q)
            self._pending_endorsements[txn_id] = pending
            for index, org_id in enumerate(targets):
                body = proposal.to_wire()
                if split_clock and index > 0:
                    # Different logical timestamps to different orgs.
                    body = dict(body)
                    body["clock"] = {
                        "client_id": self.client_id,
                        "counter": clock.counter + index,
                    }
                self.network.send(
                    Message(
                        sender=self.client_id,
                        recipient=org_id,
                        msg_type=MSG_PROPOSAL,
                        body=body,
                        size_bytes=self.perf.proposal_bytes,
                    )
                )
            deadline = self._deadline("endorse", attempt)
            timeout = self.sim.timeout(deadline)
            winner = yield AnyOf(self.sim, [pending.event, timeout])
            endorsements: List[Endorsement] = list(pending.responses)
            del self._pending_endorsements[txn_id]
            self._observe_rtts(pending, attempt_started)
            if res is not None:
                responded = {e.org_id for e in endorsements}
                if winner is pending.event:
                    # Quorum reached early: slower hedged targets are not
                    # failures, they were simply not needed.
                    self._record_attempt_outcome(sorted(responded), responded)
                else:
                    self._record_attempt_outcome(targets, responded)
            self._trace_wait(
                "client/endorse_wait",
                txn_id,
                attempt_started,
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
            self._trace_backoff(txn_id, attempt_started, attempt - 1, deadline)
            self.recorder.retried(txn_id, "endorse", attempt, self.sim.now)

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
        commit_started = self.sim.now
        if res is not None and not partial_commit:
            # Retry loop: receipts accumulate across attempts (deduped by
            # sender) and each retry re-targets fresh organizations. The
            # transaction commits durably on the org side, so re-sending
            # the same signed wire is safe — MSG_COMMIT is idempotent.
            contacted: set = set()
            pending = _Pending(self.sim, needed=q)
            self._pending_receipts[txn_id] = pending
            commit_attempt = 0
            while True:
                attempt_started = self.sim.now
                targets = self._select_orgs(self._hedged_count(q), avoid=sorted(contacted))
                contacted.update(targets)
                for org_id in targets:
                    self._breaker(org_id).record_sent()
                for org_id in targets:
                    self.network.send(
                        Message(
                            sender=self.client_id,
                            recipient=org_id,
                            msg_type=MSG_COMMIT,
                            body=wire,
                            size_bytes=transaction.wire_size(),
                        )
                    )
                deadline = self._deadline("commit", commit_attempt)
                seen = len(pending.arrivals)
                timeout = self.sim.timeout(deadline)
                winner = yield AnyOf(self.sim, [pending.event, timeout])
                self._observe_rtts(pending, attempt_started, seen)
                responded = {r.org_id for r in pending.responses}
                if winner is pending.event:
                    self._record_attempt_outcome(sorted(responded), responded)
                    break
                self._record_attempt_outcome(targets, responded)
                commit_attempt += 1
                if commit_attempt > self.config.max_retries:
                    break
                self._trace_backoff(txn_id, attempt_started, commit_attempt - 1, deadline)
                self.recorder.retried(txn_id, "commit", commit_attempt, self.sim.now)
        else:
            commit_targets = self._select_orgs(q)
            if partial_commit:
                commit_targets = commit_targets[:1]
            pending = _Pending(self.sim, needed=min(q, len(commit_targets)))
            self._pending_receipts[txn_id] = pending
            for org_id in commit_targets:
                self.network.send(
                    Message(
                        sender=self.client_id,
                        recipient=org_id,
                        msg_type=MSG_COMMIT,
                        body=wire,
                        size_bytes=transaction.wire_size(),
                    )
                )
            timeout = self.sim.timeout(self.config.commit_timeout)
            yield AnyOf(self.sim, [pending.event, timeout])
        receipts: List[Receipt] = list(pending.responses)
        del self._pending_receipts[txn_id]
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
        started = self.sim.now
        res = self.config.resilience
        if res is not None:
            targets = self._select_orgs(self._hedged_count(q))
            for org_id in targets:
                self._breaker(org_id).record_sent()
        else:
            targets = self._select_orgs(q)
        pending = _Pending(self.sim, needed=q)
        self._pending_reads[txn_id] = pending
        for org_id in targets:
            self.network.send(
                Message(
                    sender=self.client_id,
                    recipient=org_id,
                    msg_type=MSG_READ,
                    body=proposal.to_wire(),
                    size_bytes=self.perf.proposal_bytes,
                )
            )
        timeout = self.sim.timeout(self._deadline("read", 0))
        winner = yield AnyOf(self.sim, [pending.event, timeout])
        values = list(pending.responses)
        del self._pending_reads[txn_id]
        self._observe_rtts(pending, started)
        if res is not None:
            responded = set(pending._senders)
            if winner is pending.event:
                self._record_attempt_outcome(sorted(responded), responded)
            else:
                self._record_attempt_outcome(targets, responded)
        self._trace_wait("client/read_wait", txn_id, started, {"responses": len(values)})
        if winner is pending.event:
            self.recorder.committed(txn_id, self.sim.now)
            return values
        self.recorder.failed(txn_id, self.sim.now, "read timeout")
        return None


__all__ = ["Client", "ClientConfig"]
