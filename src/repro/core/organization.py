"""An OrderlessChain organization (Sections 4 and 6).

Organizations host smart contracts, endorse proposals (phase 1),
validate and commit transactions (phase 2), maintain the application
ledger (hash-chain log + committed set + CRDT value cache), and gossip
committed transactions to other organizations.

Resource model: each organization owns a CPU with ``vcpus`` slots and a
single cache lock. Endorsement and validation occupy the CPU; applying
operations to the CRDT cache and serving cached reads hold the cache
lock (the paper's serialization point — Section 9's discussion of
bounded CPU use and the locking limitation).
"""

from __future__ import annotations

import random
from itertools import islice
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from repro.core.antientropy import WatermarkDigest
from repro.core.byzantine import ByzantineOrgConfig
from repro.core.contract import (
    DEFAULT_CHANNEL,
    ContractContext,
    SmartContract,
    StateReader,
    scoped_contract_id,
)
from repro.core.policy import EndorsementPolicy
from repro.core.recording import TransactionRecorder
from repro.core.transaction import Endorsement, Proposal, Receipt, Transaction
from repro.crypto.identity import CertificateAuthority, Identity
from repro.errors import ContractError, CRDTError
from repro.ledger.ledger import Ledger
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.resources import Lock, Resource

if TYPE_CHECKING:
    from repro.bench.config import ExperimentConfig
    from repro.core.perf import PerfModel

MSG_PROPOSAL = "orderless.proposal"
MSG_ENDORSEMENT = "orderless.endorsement"
MSG_COMMIT = "orderless.commit"
MSG_RECEIPT = "orderless.receipt"
MSG_GOSSIP = "orderless.gossip"
MSG_READ = "orderless.read"
MSG_READ_RESPONSE = "orderless.read_response"
MSG_SYNC_DIGEST = "orderless.sync_digest"
MSG_SYNC_REQUEST = "orderless.sync_request"

_NO_FIELDS: Dict[str, Any] = {}

#: Sync-request pages one peer digest may pull: a digest names ranges
#: of ids, so without a cap a ~40-byte body (a huge ``high``) would
#: make the receiver enumerate and request as many ids as the peer
#: chooses. Ids past the cap are left to a later round.
SYNC_PULL_PAGES = 16


def _mapping(body: Any) -> Dict[str, Any]:
    """A peer-supplied body, or no fields at all if it is not a mapping."""
    return body if isinstance(body, dict) else _NO_FIELDS


class Organization:
    """One organization node running the OrderlessChain protocol."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        identity: Identity,
        ca: CertificateAuthority,
        policy: EndorsementPolicy,
        config: ExperimentConfig,
        perf: PerfModel,
        rng: random.Random,
        recorder: TransactionRecorder,
    ) -> None:
        self.sim = sim
        self.network = network
        self.identity = identity
        self.ca = ca
        self.policy = policy
        # Gossip, anti-entropy, snapshot and cache knobs are read from
        # the run's config; ``perf`` is its scaled cost model.
        self.config = config
        self.perf = perf
        self.rng = rng
        self.recorder = recorder
        # The application ledger: hash-chain log, committed set and CRDT
        # value cache. Every channel's contracts share it; their object
        # ids are kept apart by ContractContext's channel prefix.
        self.ledger = Ledger()
        # (transaction wire, remaining push rounds) pairs; see
        # _gossip_loop.
        self.gossip_backlog: List[tuple[Dict[str, Any], int]] = []
        # Watermark-based anti-entropy (repro.core.antientropy): the
        # committed set is summarized incrementally at commit time as
        # per-client watermarks + gap ranges, so no sync call site ever
        # sorts or copies the full set.
        self.watermarks = WatermarkDigest()
        self.cpu = Resource(sim, capacity=self.perf.vcpus)
        self.cache_lock = Lock(sim)
        # Contract id -> contract, channel-scoped ids included.
        self.contracts: Dict[str, SmartContract] = {}
        self.peer_ids: List[str] = []
        # Snapshot-based crash recovery (docs/RESILIENCE.md): with a
        # positive ``config.snapshot_interval``, a background loop
        # periodically checkpoints the committed count into
        # ``snapshot``; recover() then replays only the delta since the
        # checkpoint and runs *targeted* anti-entropy instead of the
        # full-broadcast resync.
        self.snapshot: Optional[int] = None
        self.snapshots_taken = 0
        # Byzantine state: a config plus an on/off switch the experiment
        # timeline flips (Figure 8's f:1 -> f:2 -> f:3 -> f:0 windows).
        self.byzantine: Optional[ByzantineOrgConfig] = None
        self.byzantine_active = False
        # Fail-stop crash flag (set by the fault-injection layer in
        # tandem with ``Network.crash``): a crashed organization ignores
        # incoming messages and skips its background loops. Compute
        # already in progress finishes — fail-stop at message
        # boundaries, matching the network's crash semantics.
        self.crashed = False
        # Counters for assertions and reporting. An invalid-logged
        # transaction may later commit as valid, so the invalid count
        # is not derivable from the ledger.
        self.endorsed_count = 0
        self.committed_invalid = 0
        self.gossip_commits = 0
        self.dropped_requests = 0
        network.register(self.org_id, self._on_message)

    @property
    def org_id(self) -> str:
        return self.identity.identifier

    @property
    def committed_valid(self) -> int:
        return self.ledger.valid_transaction_count

    # -- setup ---------------------------------------------------------

    def install_contract(
        self, contract: SmartContract, channel: str = DEFAULT_CHANNEL
    ) -> None:
        contract.channel = channel
        contract.contract_id = scoped_contract_id(channel, contract.contract_id)
        self.contracts[contract.contract_id] = contract

    def set_peers(self, org_ids: List[str]) -> None:
        self.peer_ids = [org_id for org_id in org_ids if org_id != self.org_id]

    def start(self) -> None:
        """Launch background processes: gossip (step 5) + anti-entropy."""
        self.sim.process(self._gossip_loop(), name=f"{self.org_id}.gossip")
        if self.config.sync_interval > 0:
            self.sim.process(self._antientropy_loop(), name=f"{self.org_id}.sync")
        if self.config.snapshot_interval > 0:
            self.sim.process(self._snapshot_loop(), name=f"{self.org_id}.snapshot")

    # -- message dispatch -------------------------------------------------

    def _on_message(self, message: Message) -> None:
        if self.crashed:
            # The network already drops traffic to a crashed node; this
            # keeps the flag alone fail-stop for a caller that sets it
            # without ``Network.crash``.
            self.dropped_requests += 1
            return
        if message.corrupted:
            # Transport-level integrity check fails; garbage is dropped
            # (the sender may retransmit or the client times out).
            self.dropped_requests += 1
            return
        if message.msg_type == MSG_PROPOSAL:
            self.sim.process(self._handle_proposal(message), name=f"{self.org_id}.endorse")
        elif message.msg_type == MSG_COMMIT:
            self.sim.process(self._handle_commit(message), name=f"{self.org_id}.commit")
        elif message.msg_type == MSG_GOSSIP:
            self.sim.process(self._handle_gossip(message), name=f"{self.org_id}.gossip_rx")
        elif message.msg_type == MSG_READ:
            self.sim.process(self._handle_read(message), name=f"{self.org_id}.read")
        elif message.msg_type == MSG_SYNC_DIGEST:
            self._handle_sync_digest(message)
        elif message.msg_type == MSG_SYNC_REQUEST:
            self._handle_sync_request(message)

    def _decode(self, cls: Any, wire: Any) -> Any:
        """``cls.from_wire(wire)``, or None — dropped and counted, never
        raised — when a peer-supplied body does not decode."""
        try:
            return cls.from_wire(wire)
        except (KeyError, TypeError, ValueError, OverflowError, AttributeError):
            self.dropped_requests += 1
            return None

    # -- phase 1: endorsement ----------------------------------------------

    def _handle_proposal(self, message: Message):
        arrived = self.sim.now
        if self._misbehaves("drop_probability"):
            self.dropped_requests += 1
            return
        proposal = self._decode(Proposal, message.body)
        if proposal is None:
            return
        if self.ca.is_revoked(proposal.client_id) or not self.ca.is_enrolled(proposal.client_id):
            return
        contract = self.contracts.get(proposal.contract_id)
        if contract is None:
            return
        context = ContractContext(proposal.client_id, proposal.clock, channel=contract.channel)
        try:
            contract.execute(context, proposal.function, proposal.params)
            write_set = context.write_set_wire()
        except (ContractError, CRDTError, TypeError):
            return  # malformed invocation: no endorsement, client times out
        except RecursionError:
            # Params nested past the recursion limit can be neither
            # executed nor rendered: drop the proposal, never raise.
            self.dropped_requests += 1
            return
        service = self.cpu.serve(self.perf.endorse_base + self.perf.endorse_per_op * len(write_set))
        yield service
        trace = self.recorder.trace
        if trace is not None:
            trace.span(
                "orderlesschain/P1/Queue",
                arrived,
                service.started_at,
                node=self.org_id,
                txn_id=proposal.proposal_id,
            )
            trace.span(
                "orderlesschain/P1/CPU",
                service.started_at,
                self.sim.now,
                node=self.org_id,
                txn_id=proposal.proposal_id,
                attrs={"ops": len(write_set)},
            )
        if self._misbehaves("wrong_endorsement_probability"):
            write_set = self._tamper_write_set(write_set)
        endorsement = Endorsement.create(self.identity, proposal.proposal_id, write_set)
        self.endorsed_count += 1
        self.recorder.phase(
            "orderlesschain/P1/Execution",
            arrived,
            self.sim.now,
            node=self.org_id,
            txn_id=proposal.proposal_id,
        )
        self.network.send(
            Message(
                sender=self.org_id,
                recipient=message.sender,
                msg_type=MSG_ENDORSEMENT,
                body=endorsement.to_wire(),
                size_bytes=self.perf.endorsement_bytes(len(write_set)),
            )
        )

    def _misbehaves(self, probability: str) -> bool:
        """One Byzantine coin flip: True with ``byzantine.<probability>``
        while the window is on; no rng draw while it is off."""
        return (
            self.byzantine_active
            and self.byzantine is not None
            and self.rng.random() < getattr(self.byzantine, probability)
        )

    @staticmethod
    def _tamper_write_set(write_set: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """A Byzantine org's 'incorrectly executed smart contract'."""
        tampered = [dict(op) for op in write_set]
        for op in tampered:
            if op["value_type"] == "gcounter":
                op["value"] = (op["value"] or 0) + 1_000_000
            else:
                op["value"] = "<tampered>"
        return tampered

    # -- phase 2: validation and commit ---------------------------------------

    def validate_transaction(self, transaction: Transaction) -> tuple[bool, str]:
        """Definition 3.2's signature-validity check plus well-formedness.

        Invariant-condition validity needs no runtime check: write-sets
        contain only I-confluent CRDT operations, so any transaction
        whose signatures validate preserves the invariants (Section 7).
        """
        proposal = transaction.proposal
        if not self.ca.is_enrolled(proposal.client_id) or self.ca.is_revoked(proposal.client_id):
            return False, "unknown or revoked client"
        client_payload, endorsement_payload = transaction.signed_payloads()
        if not self.ca.verify(proposal.client_id, client_payload, transaction.client_signature):
            return False, "invalid client signature"
        # Verify against the *transaction's* write-set digest: this both
        # checks each endorser's signature and proves the client did not
        # swap in different operations.
        valid_endorsers: set[str] = set()
        for endorsement in transaction.endorsements:
            certificate_ok = (
                self.ca.is_enrolled(endorsement.org_id)
                and self.ca.certificate_of(endorsement.org_id).role == "organization"
            )
            if not certificate_ok:
                continue
            if self.ca.verify(endorsement.org_id, endorsement_payload, endorsement.signature):
                valid_endorsers.add(endorsement.org_id)
        if not self.policy.satisfied_by(len(valid_endorsers)):
            return False, (
                f"endorsement policy {self.policy} unsatisfied: "
                f"{len(valid_endorsers)} valid endorsements"
            )
        try:
            transaction.operations()
        except (CRDTError, KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
            # A write-set can be signed by q endorsers and still not
            # parse (e.g. ``[1]``, or an infinite counter): reject it,
            # never raise.
            return False, f"malformed write-set: {exc}"
        return True, ""

    def _commit_transaction(self, transaction: Transaction, via_gossip: bool):
        """Shared commit path; returns (valid, block, reason).

        ``block`` is the block holding the transaction — the one this
        call appended, or for a duplicate the one that already logged
        it — and None for a transaction that is dropped unlogged: a
        gossiped forgery, or a write-set too deeply nested to render.
        """
        ledger = self.ledger
        txn_id = transaction.transaction_id
        if ledger.is_valid_transaction(txn_id):
            # Only a valid commit is final: an id logged as invalid may
            # still commit from a later valid copy (see Ledger.commit).
            return True, ledger.valid[txn_id], "duplicate"
        try:
            valid, reason = self.validate_transaction(transaction)
        except RecursionError:
            # A write-set nested past the recursion limit cannot be
            # hashed, so it can be neither verified nor logged (the
            # block hash renders the same wire): drop it, never raise.
            self.dropped_requests += 1
            return False, None, "unrenderable write-set"
        operations = transaction.operations() if valid else []
        if valid:
            # Applying to the cache is serialized by the cache lock;
            # the lock is taken per CRDT *object* touched (several
            # operations on one object apply under a single
            # acquisition), which is why the paper's Figure 6(d) shows
            # latency growing with the object count while the
            # ops-per-object sweep (config 5) stays flat.
            touched_objects = len({operation.object_id for operation in operations})
            apply_started = self.sim.now
            yield self.cache_lock.serve(self.perf.apply_per_op * max(1, touched_objects))
            trace = self.recorder.trace
            if trace is not None:
                trace.span(
                    "orderlesschain/P2/Apply",
                    apply_started,
                    self.sim.now,
                    node=self.org_id,
                    txn_id=txn_id,
                    attrs={"objects": touched_objects},
                )
            if ledger.is_valid_transaction(txn_id):
                # Another handler (client path or gossip) committed the
                # same transaction while we waited for the lock.
                return True, ledger.valid[txn_id], "duplicate"
        if valid:
            wire = transaction.to_wire()
            block = ledger.commit(
                transaction.transaction_id, operations, wire, valid=True
            )
            self.gossip_backlog.append((wire, self.config.gossip_ttl))
            self.watermarks.add(txn_id)
            if via_gossip:
                self.gossip_commits += 1
            return True, block, reason
        if via_gossip:
            # A gossiped transaction that fails validation is a forgery
            # (possibly tampered in transit by a Byzantine peer); it is
            # dropped so an honest copy can still commit later.
            return False, None, reason
        rejection = ledger.block_of(txn_id)
        if rejection is not None:
            # Already logged as invalid earlier; don't log it twice.
            return False, rejection, reason
        block = ledger.commit(
            transaction.transaction_id, [], transaction.to_wire(), valid=False
        )
        self.committed_invalid += 1
        return False, block, reason

    def _handle_commit(self, message: Message):
        arrived = self.sim.now
        if self._misbehaves("drop_probability"):
            self.dropped_requests += 1
            return
        transaction = self._decode(Transaction, message.body)
        if transaction is None:
            return
        txn_id = transaction.transaction_id
        ledger = self.ledger
        if ledger.has_transaction(txn_id):
            # Duplicate (resent by the client or already gossiped): do
            # not commit again, but resend the receipt/rejection for
            # the block that holds it (its valid commit, if any).
            yield self.cpu.serve(self.perf.dedup_check)
            block = ledger.block_of(txn_id)
            self._send_receipt(message.sender, txn_id, block.block_hash, block.valid)
            return
        verify_started = self.sim.now
        yield self.cpu.serve(
            self.perf.commit_verify_base
            + self.perf.commit_verify_per_endorsement * len(transaction.endorsements)
        )
        trace = self.recorder.trace
        if trace is not None:
            trace.span(
                "orderlesschain/P2/Verify",
                verify_started,
                self.sim.now,
                node=self.org_id,
                txn_id=txn_id,
                attrs={"endorsements": len(transaction.endorsements)},
            )
        valid, block, _reason = yield from self._commit_transaction(transaction, via_gossip=False)
        if block is None:
            return  # dropped unlogged: no receipt to send
        self.recorder.phase(
            "orderlesschain/P2/Commit",
            arrived,
            self.sim.now,
            node=self.org_id,
            txn_id=txn_id,
            attrs={"valid": valid},
        )
        self._send_receipt(message.sender, txn_id, block.block_hash, valid)

    def _send_receipt(self, client_id: str, txn_id: str, block_hash: str, valid: bool) -> None:
        receipt = Receipt.create(self.identity, txn_id, block_hash, valid)
        self.network.send(
            Message(
                sender=self.org_id,
                recipient=client_id,
                msg_type=MSG_RECEIPT,
                body=receipt.to_wire(),
                size_bytes=self.perf.receipt_bytes,
            )
        )

    # -- gossip (step 5) --------------------------------------------------------

    def _gossip_loop(self):
        while True:
            yield self.sim.timeout(self.config.gossip_interval)
            if self.crashed or not self.peer_ids or not self.gossip_backlog:
                continue
            entries = self.gossip_backlog
            # Re-queue transactions that still have rounds left.
            self.gossip_backlog = [(wire, ttl - 1) for wire, ttl in entries if ttl > 1]
            batch = [wire for wire, _ in entries]
            if self._misbehaves("suppress_gossip_probability"):
                continue
            fanout = min(self.config.gossip_fanout, len(self.peer_ids))
            targets = self.rng.sample(self.peer_ids, fanout)
            size = sum(
                self.perf.gossip_txn_base_bytes
                + self.perf.per_op_bytes * len(txn["write_set"])
                for txn in batch
            )
            for target in targets:
                self.network.send(
                    Message(
                        sender=self.org_id,
                        recipient=target,
                        msg_type=MSG_GOSSIP,
                        body={"transactions": batch},
                        size_bytes=size,
                    )
                )

    def _handle_gossip(self, message: Message):
        wires = _mapping(message.body).get("transactions")
        if not isinstance(wires, list):
            self.dropped_requests += 1  # malformed; see _handle_sync_digest
            return
        for wire in wires:
            # A duplicate — the common case at steady state — is a Wire
            # already decoded elsewhere: decoding it is one slot read.
            transaction = self._decode(Transaction, wire)
            if transaction is None:
                continue
            if self.ledger.is_valid_transaction(transaction.transaction_id):
                yield self.cpu.serve(self.perf.dedup_check)
                continue
            # Batched, amortized verification: cheaper than the client
            # path, off any client's critical path.
            yield self.cpu.serve(self.perf.gossip_commit_per_txn)
            yield from self._commit_transaction(transaction, via_gossip=True)

    # -- anti-entropy reconciliation ---------------------------------------------

    def _digest_body_and_size(self) -> tuple[Dict[str, Any], int]:
        """The digest wire form + modeled size.

        The per-client watermark + gap summary of the committed set,
        O(clients + gaps) bytes and O(clients) work, read straight off
        the incrementally maintained :class:`WatermarkDigest`.
        """
        marks = self.watermarks
        return (
            {"watermarks": marks.to_wire()},
            self.perf.watermark_digest_bytes(marks.client_count, marks.gap_count),
        )

    def _send_digest(self, recipient: str, context: str) -> None:
        body, size = self._digest_body_and_size()
        self.network.send(
            Message(
                sender=self.org_id,
                recipient=recipient,
                msg_type=MSG_SYNC_DIGEST,
                body=body,
                size_bytes=size,
            )
        )
        trace = self.recorder.trace
        if trace is not None:
            trace.instant(
                "org/sync_digest",
                self.sim.now,
                node=self.org_id,
                attrs={"bytes": size, "context": context},
            )

    def _antientropy_loop(self):
        """Periodically exchange transaction digests with one peer.

        Push gossip alone cannot reconcile replicas once a
        transaction's push rounds are spent — most visibly across a
        healed network partition (Section 3's CAP discussion). The
        digest exchange is the classic anti-entropy repair: send a
        digest of the committed transaction ids; the peer requests
        what it is missing and receives it as a gossip batch.
        """
        while True:
            yield self.sim.timeout(self.config.sync_interval)
            if self.crashed or not self.peer_ids:
                continue
            if self._misbehaves("suppress_gossip_probability"):
                continue
            self._send_digest(self.rng.choice(self.peer_ids), context="sync")

    def _handle_sync_digest(self, message: Message) -> None:
        """Push-pull reconciliation against a peer's digest.

        Pull: request the transactions the digest covers that we lack.
        Push: send back (as a gossip batch) the valid transactions we
        hold that the digest does not cover — this is what lets a
        recovered organization catch up by *announcing* its (stale)
        digest to peers (see :meth:`resync`), and halves the number of
        anti-entropy rounds needed after a partition heals.

        Both sides of the symmetric difference are reconstructed from
        watermark deltas (O(clients + gaps + divergence)). The pull is
        capped at ``SYNC_PULL_PAGES`` pages of ids, so the divergence a
        peer claims cannot set the size of our work; a digest that
        claims more is counted in ``dropped_requests``.
        """
        marks = _mapping(message.body).get("watermarks")
        if not isinstance(marks, dict):
            # Malformed: drop it and keep serving.
            self.dropped_requests += 1
            return
        remote = self._decode(WatermarkDigest, marks)
        if remote is None:
            return
        ledger = self.ledger
        pulled = (
            txn_id
            for txn_id in remote.difference(self.watermarks)
            if not ledger.has_transaction(txn_id)
        )
        missing = list(islice(pulled, SYNC_PULL_PAGES * max(1, self.perf.sync_page_txns)))
        if next(pulled, None) is not None:
            self.dropped_requests += 1
        surplus = list(self.watermarks.difference(remote))
        # Both senders page their input; an empty side sends nothing.
        pages = self._send_sync_requests(message.sender, missing)
        pages += self._send_txn_batches(
            message.sender, (ledger.valid[txn_id].payload for txn_id in surplus)
        )
        trace = self.recorder.trace
        if trace is not None:
            trace.instant(
                "org/sync_reconcile",
                self.sim.now,
                node=self.org_id,
                attrs={"missing": len(missing), "surplus": len(surplus), "pages": pages},
            )

    def _send_sync_requests(self, recipient: str, txn_ids: List[str]) -> int:
        """Request ids from a peer, ``sync_page_txns`` ids per message."""
        page = max(1, self.perf.sync_page_txns)
        pages = 0
        for start in range(0, len(txn_ids), page):
            chunk = txn_ids[start : start + page]
            self.network.send(
                Message(
                    sender=self.org_id,
                    recipient=recipient,
                    msg_type=MSG_SYNC_REQUEST,
                    body={"txn_ids": chunk},
                    size_bytes=self.perf.id_list_bytes(len(chunk)),
                )
            )
            pages += 1
        return pages

    def _send_txn_batches(self, recipient: str, wires: Iterable[Dict[str, Any]]) -> int:
        """Ship transaction wires as gossip batches.

        Batches are capped at ``sync_page_txns`` transactions so a
        freshly recovered organization receives its backlog as a
        paginated stream, never one unbounded message.
        """
        wires = list(wires)
        page = max(1, self.perf.sync_page_txns)
        pages = 0
        for start in range(0, len(wires), page):
            chunk = wires[start : start + page]
            size = sum(
                self.perf.gossip_txn_base_bytes
                + self.perf.per_op_bytes * len(txn["write_set"])
                for txn in chunk
            )
            self.network.send(
                Message(
                    sender=self.org_id,
                    recipient=recipient,
                    msg_type=MSG_GOSSIP,
                    body={"transactions": chunk},
                    size_bytes=size,
                )
            )
            pages += 1
        return pages

    def _handle_sync_request(self, message: Message) -> None:
        """Answer at most one page of distinct ids, as honest peers send
        (:meth:`_send_sync_requests`); a longer request or a repeated id
        is dropped and counted, so no id is resent twice per request."""
        txn_ids = _mapping(message.body).get("txn_ids")
        if (
            not isinstance(txn_ids, list)
            or len(txn_ids) > max(1, self.perf.sync_page_txns)
            or not all(isinstance(txn_id, str) for txn_id in txn_ids)
            or len(set(txn_ids)) < len(txn_ids)
        ):
            self.dropped_requests += 1  # malformed; see _handle_sync_digest
            return
        valid = self.ledger.valid
        self._send_txn_batches(
            message.sender, (valid[txn_id].payload for txn_id in txn_ids if txn_id in valid)
        )

    # -- crash / recovery (fault injection) ---------------------------------------

    def crash_local_state(self) -> None:
        """Drop the in-memory state a fail-stop crash would lose.

        The durable pieces (the ledger's hash-chain log and committed
        set) survive; the gossip backlog is purely in-memory and is
        lost. Called by the fault layer together with ``Network.crash``.
        """
        self.crashed = True
        self.gossip_backlog.clear()

    def resync(self) -> None:
        """Announce our digest to every peer after recovering.

        Peers answer a digest push-pull style (see
        :meth:`_handle_sync_digest`): they request what we have that
        they lack, and push back what they have that we lack — exactly
        the rejoin reconciliation an organization needs after a crash.
        """
        self.crashed = False
        self.ledger.rebuild_cache()
        for target in self.peer_ids:
            self._send_digest(target, context="resync")

    # -- snapshot checkpoints (docs/RESILIENCE.md) ---------------------------------

    def _snapshot_loop(self):
        """Periodically checkpoint the committed set for fast recovery.

        The checkpoint's CPU cost is proportional to what changed since
        the previous snapshot (incremental checkpointing); the snapshot
        itself is the durable marker :meth:`recover` replays from. It
        stores only the committed count — O(1) per checkpoint, never a
        copy of the full id set — read before the checkpoint's CPU job,
        so a commit that lands during the job is replayed on recovery.
        """
        while True:
            yield self.sim.timeout(self.config.snapshot_interval)
            if self.crashed:
                continue
            known = len(self.ledger.valid)
            new = known - (self.snapshot or 0)
            if self.snapshot is not None and new == 0:
                continue  # nothing committed since the last checkpoint
            yield self.cpu.serve(self.perf.snapshot_base + self.perf.snapshot_per_txn * new)
            self.snapshot = known
            self.snapshots_taken += 1
            trace = self.recorder.trace
            if trace is not None:
                trace.instant(
                    "org/snapshot",
                    self.sim.now,
                    node=self.org_id,
                    attrs={"txns": known, "new": new},
                )

    def recover(self) -> str:
        """Rejoin after a crash; returns the recovery mode used.

        With snapshots enabled and at least one checkpoint taken, the
        organization replays only the delta between the checkpoint and
        its durable log, then reconciles with a *couple* of peers
        (targeted anti-entropy). Without a checkpoint there is no delta
        to replay, so it announces its digest to every peer instead
        (:meth:`resync`).
        """
        if self.config.snapshot_interval > 0 and self.snapshot is not None:
            self.crashed = False
            self.sim.process(self._recover_from_snapshot(), name=f"{self.org_id}.recover")
            return "snapshot"
        self.resync()
        return "resync"

    def _recover_from_snapshot(self):
        started = self.sim.now
        # The committed set is in commit order, so the replay delta is
        # what was committed past the checkpointed count.
        replayed = len(self.ledger.valid) - (self.snapshot or 0)
        yield self.cpu.serve(
            self.perf.recover_base + self.perf.recover_replay_per_txn * replayed
        )
        self.ledger.rebuild_cache()
        # Targeted anti-entropy: a digest to a bounded number of peers
        # is enough to learn what was missed while down (each answers
        # push-pull), without the O(peers) broadcast of resync().
        fanout = min(2, len(self.peer_ids))
        targets = self.rng.sample(self.peer_ids, fanout) if fanout else []
        for target in targets:
            self._send_digest(target, context="recover")
        trace = self.recorder.trace
        if trace is not None:
            trace.span(
                "org/recover",
                started,
                self.sim.now,
                node=self.org_id,
                attrs={"mode": "snapshot", "replayed": replayed, "peers": fanout},
            )

    # -- reads --------------------------------------------------------------------

    def _handle_read(self, message: Message):
        proposal = self._decode(Proposal, message.body)
        if proposal is None:
            return
        contract = self.contracts.get(proposal.contract_id)
        if contract is None:
            return
        ledger = self.ledger
        yield self.cpu.serve(self.perf.read_base)
        # Reads are served from the cache, under the cache lock.
        entries = ledger.valid_transaction_count
        yield self.cache_lock.serve(
            self.perf.cache_read_base + self.perf.cache_read_per_entry * entries
        )
        reader = StateReader(ledger.read)
        context = ContractContext(
            proposal.client_id,
            proposal.clock,
            state=reader,
            allow_reads=True,
            channel=contract.channel,
        )
        try:
            value = contract.execute(context, proposal.function, proposal.params)
        except (ContractError, CRDTError, TypeError):
            value = None
        self.network.send(
            Message(
                sender=self.org_id,
                recipient=message.sender,
                msg_type=MSG_READ_RESPONSE,
                body={"proposal_id": proposal.proposal_id, "value": value},
                size_bytes=self.perf.read_response_bytes,
            )
        )

    # -- state access -------------------------------------------------------

    def read_state(self, object_id: str, path=()) -> Any:
        """Direct (zero-time) state read for tests and assertions."""
        return self.ledger.read(object_id, path)

    def state_snapshot(self) -> Any:
        """Application state: the ledger's canonical snapshot."""
        return self.ledger.state_snapshot()

    def utilization(self) -> float:
        """CPU utilization so far. The CRDT-cache lock section is CPU
        work on one core (the paper attributes OrderlessChain's higher
        CPU utilization to "applying the CRDT operations to the
        cache"), so it counts toward the CPU's busy time."""
        return min(1.0, self.cpu.utilization() + self.cache_lock.utilization() / self.cpu.capacity)


__all__ = ["Organization"]
