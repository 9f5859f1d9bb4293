"""Sync HotStuff baseline: synchronous leader-based BFT SMR.

Sync HotStuff (Abraham et al., S&P 2020) commits a block ``2Δ`` after
it is proposed, where Δ is the assumed synchrony bound; the leader
proposes every block and is therefore the throughput bottleneck ("the
main bottleneck is the leader component in their coordination-based
approach", Section 9).

Pipeline modeled:

1. clients send transactions to the leader;
2. the leader batches them and broadcasts a proposal (its outgoing link
   serializes the n copies);
3. organizations vote on receipt, schedule their commit ``2Δ`` later
   (the synchronous commit rule), apply the block in order, and the
   event peer notifies the client.

Reads are BFT reads through the same path — which is why the paper's
Sync HotStuff read/modify latencies track each other.
"""

from __future__ import annotations

from typing import Any, Dict, List

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

MSG_SUBMIT = "hotstuff.submit"
MSG_PROPOSE = "hotstuff.propose"
MSG_VOTE = "hotstuff.vote"
MSG_COMMIT_EVENT = "hotstuff.commit_event"
MSG_PROPOSE_ANNOUNCE = "hotstuff.propose_announce"
MSG_PROPOSE_FETCH = "hotstuff.propose_fetch"

LEADER_ID = "hotstuff-leader"

TXN_BYTES = 190


class SyncHotStuffOrg(Replica):
    """A replica: votes on proposals and commits 2Δ later."""

    def __init__(self, net: "SyncHotStuffNetwork", node_id: str) -> None:
        # Proposals apply strictly in batch order (replicas replicate
        # the leader's log).
        super().__init__(net, node_id, self._apply_proposal, "proposals")
        self.state = VersionedState()
        self.contract = FABRIC_CONTRACTS[net.settings.app]()
        self.committed = 0

    def _on_message(self, message: Message) -> None:
        if message.corrupted:
            return
        if message.msg_type == MSG_PROPOSE:
            body = message.body
            # Commit is 2Δ after *receipt*; stamp the deadline now so
            # the in-order applier can wait out whatever remains when
            # this proposal's turn comes.
            ready_at = self.net.sim.now + 2 * self.net.settings.perf.hotstuff_delta
            if not self.applier.offer(body["index"], (body["transactions"], ready_at)):
                return
            # Vote only on first receipt; under synchrony every correct
            # replica votes, so commit stays time-driven.
            self.net.network.send(
                Message(
                    sender=self.node_id,
                    recipient=LEADER_ID,
                    msg_type=MSG_VOTE,
                    body={"batch_id": body["batch_id"]},
                    size_bytes=120,
                )
            )
        elif message.msg_type == MSG_PROPOSE_ANNOUNCE:
            self.net.log.on_announce(self.applier, message.body)

    def _apply_proposal(self, entry):
        transactions, ready_at = entry
        perf = self.net.settings.perf
        if ready_at > self.net.sim.now:
            yield self.net.sim.timeout(ready_at - self.net.sim.now)
        for txn in transactions:
            started = self.net.sim.now
            yield self.cpu.serve(perf.hotstuff_commit_per_txn)
            if txn["kind"] == "read":
                value = self.contract.read(self.state, txn["params"])
            else:
                _, write_set = self.contract.simulate(self.state, txn["params"])
                self.state.apply_write_set(write_set)
                value = True
            self.committed += 1
            if txn["event_peer"] == self.node_id:
                self.net.network.send(
                    Message(
                        sender=self.node_id,
                        recipient=txn["client_id"],
                        msg_type=MSG_COMMIT_EVENT,
                        body={"txn_id": txn["txn_id"], "value": value},
                        size_bytes=200,
                    )
                )
            self.net.recorder.phase(
                "hotstuff/P2/Commit",
                started,
                self.net.sim.now,
                node=self.node_id,
                txn_id=txn["txn_id"],
            )


class SyncHotStuffNetwork(BaselineNetwork):
    """A built Sync HotStuff network: leader + replicas + clients."""

    system = "synchotstuff"
    replica_class = SyncHotStuffOrg
    client_class = SubmitClient
    msg_submit, msg_commit_event, txn_bytes = MSG_SUBMIT, MSG_COMMIT_EVENT, TXN_BYTES

    def __init__(self, settings: BaselineSettings) -> None:
        if settings.num_orgs < 2:
            raise ConfigError(f"need at least 2 organizations, got {settings.num_orgs}")
        super().__init__(settings)
        self._batch_counter = 0
        self._submit_arrivals: Dict[str, float] = {}
        self.leader_nic = Nic(self.sim, self.network.latency.bandwidth_bytes_per_s)
        self.leader = BatchServer(
            self.sim,
            per_item=settings.perf.hotstuff_leader_per_txn,
            batch_timeout=settings.perf.hotstuff_batch_interval,
            max_batch=100000,
            on_batch=self._propose_batch,
            name="hotstuff-leader",
        )
        self.queues = {LEADER_ID: self.leader}
        self.log = OrderedLog(
            self,
            LEADER_ID,
            entry_type=MSG_PROPOSE,
            announce_type=MSG_PROPOSE_ANNOUNCE,
            fetch_type=MSG_PROPOSE_FETCH,
            entry_bytes=lambda proposal: 200 + TXN_BYTES * len(proposal["transactions"]),
            on_message=self._leader_receive,
            name="hotstuff",
        )

    def _leader_receive(self, message: Message) -> None:
        if message.msg_type == MSG_SUBMIT:
            self._submit_arrivals[message.body["txn_id"]] = self.sim.now
            self.leader.enqueue(message.body)
        # Votes are collected implicitly: under synchrony every correct
        # replica votes, and commit is time-driven (2Δ), so the leader
        # does not gate progress on them.

    def _propose_batch(self, batch: List[Dict[str, Any]]):
        self._batch_counter += 1
        batch_bytes = 200 + TXN_BYTES * len(batch)
        yield self.leader_nic.transmit(batch_bytes * len(self.replica_ids))
        now = self.sim.now
        for txn in batch:
            arrived = self._submit_arrivals.pop(txn["txn_id"], now)
            # Leader-side consensus latency: queueing + batching + NIC.
            self.recorder.phase(
                "hotstuff/P1/Consensus", arrived, now, node=LEADER_ID, txn_id=txn["txn_id"]
            )
        self.log.publish(
            {"index": len(self.log.entries), "batch_id": self._batch_counter, "transactions": batch}
        )


__all__ = ["SyncHotStuffNetwork", "SyncHotStuffOrg"]
