"""BIDL baseline: sequencer + parallel execution and consensus.

BIDL "uses a central sequencer for sequencing transactions. Afterward,
it executes the transactions and performs coordination-based consensus
in parallel" (Section 9). It is "highly optimized for data center
networks with high bandwidth and low network latency"; in a WAN "their
proposed coordination-based approach for consensus and BIDL's central
sequencer becomes a bottleneck" — the effect this model reproduces.

Pipeline modeled:

1. the client sends the transaction to the *sequencer*, which assigns a
   sequence number and multicasts it to every organization (its
   outgoing link serializes the n copies);
2. organizations execute speculatively in sequence order on arrival;
3. the consensus *leader* batches sequenced transactions and runs
   ``bidl_consensus_rounds`` vote rounds with the organizations over
   the WAN; after the final round it broadcasts DECIDE;
4. on DECIDE organizations mark the transactions committed and the
   event peer notifies the client.

Reads are BFT reads: they travel the same pipeline (which is why the
paper's BIDL read and modify latencies track each other).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Tuple

from repro.baselines.common import (
    FABRIC_CONTRACTS,
    BaselineNetwork,
    BaselineSettings,
    BatchServer,
    Nic,
    OrderedLog,
    Replica,
    SubmitClient,
    VersionedState,
)
from repro.errors import ConfigError
from repro.net.message import Message
from repro.sim.events import Event

MSG_SUBMIT = "bidl.submit"
MSG_SEQUENCED = "bidl.sequenced"
MSG_PREPARE = "bidl.prepare"
MSG_VOTE = "bidl.vote"
MSG_DECIDE = "bidl.decide"
MSG_COMMIT_EVENT = "bidl.commit_event"
MSG_SEQ_ANNOUNCE = "bidl.seq_announce"
MSG_SEQ_FETCH = "bidl.seq_fetch"

SEQUENCER_ID = "bidl-sequencer"
LEADER_ID = "bidl-leader"

TXN_BYTES = 220


class BIDLOrg(Replica):
    """An organization: speculative execution + consensus votes."""

    def __init__(self, net: "BIDLNetwork", node_id: str) -> None:
        # BIDL's defining property is that every org executes the
        # sequenced stream in sequencer order; the applier also dedups
        # the sequencer's multicast duplicates.
        super().__init__(net, node_id, self._apply_sequenced, "seq")
        self.state = VersionedState()
        self.contract = FABRIC_CONTRACTS[net.settings.app]()
        self.executed: Dict[str, Any] = {}
        self.committed = 0

    def _on_message(self, message: Message) -> None:
        if message.corrupted:
            return
        if message.msg_type == MSG_SEQUENCED:
            self.applier.offer(message.body["seq"], message.body)
        elif message.msg_type == MSG_SEQ_ANNOUNCE:
            self.net.log.on_announce(self.applier, message.body)
        elif message.msg_type == MSG_PREPARE:
            self._vote(message)
        elif message.msg_type == MSG_DECIDE:
            self.net.sim.process(self._commit(message), name=f"{self.node_id}.commit")

    def _apply_sequenced(self, txn: Dict[str, Any]):
        """Speculative execution, in parallel with consensus."""
        perf = self.net.settings.perf
        started = self.net.sim.now
        yield self.cpu.serve(perf.bidl_execute_per_txn)
        if txn["kind"] == "read":
            self.executed[txn["txn_id"]] = self.contract.read(self.state, txn["params"])
        else:
            _, write_set = self.contract.simulate(self.state, txn["params"])
            self.state.apply_write_set(write_set)
            self.executed[txn["txn_id"]] = True
        self.net.recorder.phase(
            "bidl/P3/Execution", started, self.net.sim.now, node=self.node_id, txn_id=txn["txn_id"]
        )

    def _vote(self, message: Message) -> None:
        self.net.network.send(
            Message(
                sender=self.node_id,
                recipient=LEADER_ID,
                msg_type=MSG_VOTE,
                body={"batch_id": message.body["batch_id"], "round": message.body["round"]},
                size_bytes=120,
            )
        )

    def _commit(self, message: Message):
        perf = self.net.settings.perf
        for txn in message.body["transactions"]:
            started = self.net.sim.now
            yield self.cpu.serve(perf.hotstuff_commit_per_txn)
            self.committed += 1
            if txn["event_peer"] == self.node_id:
                self.net.network.send(
                    Message(
                        sender=self.node_id,
                        recipient=txn["client_id"],
                        msg_type=MSG_COMMIT_EVENT,
                        body={
                            "txn_id": txn["txn_id"],
                            "value": self.executed.get(txn["txn_id"]),
                        },
                        size_bytes=200,
                    )
                )
            self.net.recorder.phase(
                "bidl/P4/Commit", started, self.net.sim.now, node=self.node_id, txn_id=txn["txn_id"]
            )


class BIDLNetwork(BaselineNetwork):
    """A built BIDL network: sequencer + consensus leader + orgs."""

    system = "bidl"
    replica_class = BIDLOrg
    client_class = SubmitClient
    msg_submit, msg_commit_event, txn_bytes = MSG_SUBMIT, MSG_COMMIT_EVENT, TXN_BYTES

    def __init__(self, settings: BaselineSettings) -> None:
        if settings.num_orgs < 4:
            raise ConfigError(f"BIDL consensus needs >= 4 organizations, got {settings.num_orgs}")
        super().__init__(settings)
        perf = settings.perf
        bandwidth = self.network.latency.bandwidth_bytes_per_s
        self._batch_ids = itertools.count()
        self._vote_state: Dict[int, Tuple[Event, int]] = {}
        self._sequence_arrivals: Dict[str, float] = {}
        self._consensus_enqueued: Dict[str, float] = {}
        # Sequencer: a fast single server whose outgoing link serializes
        # the n-way multicast (the WAN bandwidth bottleneck).
        self.sequencer_nic = Nic(self.sim, bandwidth)
        self.sequencer = BatchServer(
            self.sim,
            per_item=perf.bidl_sequencer_per_txn,
            batch_timeout=0.02,
            max_batch=256,
            on_batch=self._sequence_batch,
            name="bidl-sequencer",
        )
        self.log = OrderedLog(
            self,
            SEQUENCER_ID,
            entry_type=MSG_SEQUENCED,
            announce_type=MSG_SEQ_ANNOUNCE,
            fetch_type=MSG_SEQ_FETCH,
            entry_bytes=lambda txn: TXN_BYTES,
            on_message=self._sequencer_receive,
            name="bidl",
        )
        # Consensus leader.
        self.leader_nic = Nic(self.sim, bandwidth)
        self.leader = BatchServer(
            self.sim,
            per_item=perf.bidl_leader_per_txn,
            batch_timeout=perf.bidl_batch_interval,
            max_batch=100000,
            on_batch=self._consensus_batch,
            name="bidl-leader",
        )
        self.network.register(LEADER_ID, self._leader_receive)
        self.queues = {SEQUENCER_ID: self.sequencer, LEADER_ID: self.leader}

    @property
    def fault_tolerance(self) -> int:
        return (self.settings.num_orgs - 1) // 3

    @property
    def vote_quorum(self) -> int:
        return 2 * self.fault_tolerance + 1

    # -- sequencer ---------------------------------------------------------

    def _sequencer_receive(self, message: Message) -> None:
        if message.msg_type != MSG_SUBMIT:
            return
        self._sequence_arrivals[message.body["txn_id"]] = self.sim.now
        self.sequencer.enqueue(message.body)

    def _sequence_batch(self, batch: List[Dict[str, Any]]):
        total_bytes = sum(TXN_BYTES for _ in batch) * (len(self.replica_ids) + 1)
        yield self.sequencer_nic.transmit(total_bytes)
        now = self.sim.now
        for txn in batch:
            txn["seq"] = len(self.log.entries)
            arrived = self._sequence_arrivals.pop(txn["txn_id"], now)
            self.recorder.phase(
                "bidl/P1/Sequence", arrived, now, node=SEQUENCER_ID, txn_id=txn["txn_id"]
            )
            self._consensus_enqueued[txn["txn_id"]] = now
            self.log.publish(txn)
            # The sequenced transaction also enters consensus.
            self.leader.enqueue(txn)

    # -- consensus leader ----------------------------------------------------

    def _leader_receive(self, message: Message) -> None:
        if message.corrupted or message.msg_type != MSG_VOTE:
            return
        entry = self._vote_state.get(message.body["batch_id"])
        if entry is None:
            return
        event, needed = entry
        needed -= 1
        if needed <= 0:
            if not event.triggered:
                event.trigger()
        else:
            self._vote_state[message.body["batch_id"]] = (event, needed)

    def _consensus_batch(self, batch: List[Dict[str, Any]]):
        """Spawn a pipelined consensus instance for the batch.

        Instances run concurrently (BFT leaders pipeline consensus);
        the shared leader NIC still serializes their broadcasts, and
        the BatchServer's per-item service time still bounds the
        leader's CPU throughput.
        """
        self.sim.process(self._consensus_instance(batch), name="bidl.consensus")
        return
        yield  # pragma: no cover - marks this as a generator for BatchServer

    def _consensus_instance(self, batch: List[Dict[str, Any]]):
        settings = self.settings
        batch_id = next(self._batch_ids)
        # Consensus carries ordering digests only: the payload was
        # already multicast by the sequencer (BIDL's key design).
        batch_bytes = 200 + 48 * len(batch)
        for round_number in range(settings.perf.bidl_consensus_rounds):
            yield self.leader_nic.transmit(batch_bytes * len(self.replica_ids))
            votes = Event(self.sim)
            self._vote_state[batch_id] = (votes, self.vote_quorum)
            for org_id in self.replica_ids:
                self.network.send(
                    Message(
                        sender=LEADER_ID,
                        recipient=org_id,
                        msg_type=MSG_PREPARE,
                        body={"batch_id": batch_id, "round": round_number},
                        size_bytes=batch_bytes if round_number == 0 else 160,
                    )
                )
            yield votes
            del self._vote_state[batch_id]
            batch_id = next(self._batch_ids)
        # DECIDE: organizations commit and notify clients.
        now = self.sim.now
        decide = {
            "transactions": [
                {
                    "txn_id": txn["txn_id"],
                    "client_id": txn["client_id"],
                    "event_peer": txn["event_peer"],
                }
                for txn in batch
            ]
        }
        for txn in batch:
            enqueued = self._consensus_enqueued.pop(txn["txn_id"], now)
            self.recorder.phase(
                "bidl/P2/Consensus", enqueued, now, node=LEADER_ID, txn_id=txn["txn_id"]
            )
        yield self.leader_nic.transmit(160 * len(self.replica_ids))
        for org_id in self.replica_ids:
            self.network.send(
                Message(
                    sender=LEADER_ID,
                    recipient=org_id,
                    msg_type=MSG_DECIDE,
                    body=decide,
                    size_bytes=200 + 60 * len(batch),
                )
            )


__all__ = ["BIDLNetwork", "BIDLOrg"]
