"""Hyperledger Fabric baseline: execute → order → validate → commit.

The coordination structure that the paper measures:

* clients collect endorsements from ``q`` peers (execution phase);
* the assembled transaction goes to the *Solo ordering service* — a
  single-server queue that batches transactions into blocks; this is
  the throughput bottleneck ("Fabric's central ordering service for
  consensus is a bottleneck", Section 9 / Table 3);
* peers validate delivered blocks sequentially with *MVCC validation*:
  a transaction whose read-set versions changed since endorsement is
  invalidated — on contended keys (vote tallies, highest bids) this
  fails most concurrent transactions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.baselines.common import (
    COMMIT_TIMEOUT,
    FABRIC_CONTRACTS,
    BaselineNetwork,
    BatchServer,
    FabricStyleContract,
    OrderedLog,
    Replica,
    VersionedState,
)
from repro.net.message import Message
from repro.sim.events import AnyOf, Event

if TYPE_CHECKING:
    from repro.bench.config import ExperimentConfig

MSG_PROPOSAL = "fabric.proposal"
MSG_ENDORSEMENT = "fabric.endorsement"
MSG_ORDER = "fabric.order"
MSG_BLOCK = "fabric.block"
MSG_COMMIT_EVENT = "fabric.commit_event"
MSG_READ = "fabric.read"
MSG_READ_RESPONSE = "fabric.read_response"
MSG_BLOCK_ANNOUNCE = "fabric.block_announce"
MSG_BLOCK_FETCH = "fabric.block_fetch"

ORDERER_ID = "fabric-orderer"


class FabricPeer(Replica):
    """A Fabric peer: endorses proposals and validates blocks.

    The message types are the network's. FabricCRDT's peer shares the
    dispatch, the read reply and the commit event; it overrides the
    endorsement and the block application, and supplies the read value
    (:meth:`_value`) from its own state.
    """

    def __init__(self, net: "FabricNetwork", node_id: str) -> None:
        # Blocks apply strictly in ledger order: Fabric peers commit
        # block k before k+1 (MVCC verdicts depend on it).
        super().__init__(net, node_id, self._apply_block, "blocks")
        self.state = VersionedState()
        self.contract: FabricStyleContract = FABRIC_CONTRACTS[net.config.app]()
        self.committed_valid = 0
        self.committed_invalid = 0

    def _on_message(self, message: Message) -> None:
        if message.corrupted:
            return
        net = self.net
        if message.msg_type == net.msg_proposal:
            net.sim.process(self._endorse(message), name=f"{self.node_id}.endorse")
        elif message.msg_type == net.msg_block:
            self.applier.offer(message.body["index"], message.body["transactions"])
        elif message.msg_type == net.msg_block_announce:
            net.log.on_announce(self.applier, message.body)
        elif message.msg_type == net.msg_read:
            net.sim.process(self._read(message), name=f"{self.node_id}.read")

    def _endorse(self, message: Message):
        arrived = self.net.sim.now
        body = message.body
        yield self.cpu.serve(self.net.perf.fabric_endorse)
        read_set, write_set = self.contract.simulate(self.state, body["params"])
        self.net.recorder.phase(
            "fabric/P1/Endorse", arrived, self.net.sim.now, node=self.node_id, txn_id=body["txn_id"]
        )
        self.net.network.send(
            Message(
                sender=self.node_id,
                recipient=message.sender,
                msg_type=self.net.msg_endorsement,
                body={
                    "txn_id": body["txn_id"],
                    "read_set": read_set,
                    "write_set": write_set,
                },
                size_bytes=300 + 60 * (len(read_set) + len(write_set)),
            )
        )

    def _apply_block(self, transactions: List[Dict[str, Any]]):
        perf = self.net.perf
        for txn in transactions:
            arrived = self.net.sim.now
            yield self.cpu.serve(perf.fabric_validate_per_txn)
            valid = self.state.mvcc_check([tuple(rs) for rs in txn["read_set"]])
            if valid:
                yield self.cpu.serve(perf.fabric_commit_per_txn)
                self.state.apply_write_set([tuple(ws) for ws in txn["write_set"]])
                self.committed_valid += 1
            else:
                self.committed_invalid += 1
            self._notify(txn, valid)
            self.net.recorder.phase(
                "fabric/P3/Commit",
                arrived,
                self.net.sim.now,
                node=self.node_id,
                txn_id=txn["txn_id"],
                attrs={"valid": valid},
            )

    def _notify(self, txn: Dict[str, Any], valid: bool) -> None:
        """The transaction's event peer tells its client the verdict."""
        if txn["event_peer"] == self.node_id:
            self.net.network.send(
                Message(
                    sender=self.node_id,
                    recipient=txn["client_id"],
                    msg_type=self.net.msg_commit_event,
                    body={"txn_id": txn["txn_id"], "valid": valid},
                    size_bytes=160,
                )
            )

    def _value(self, params: Dict[str, Any]) -> Any:
        """The value a read of ``params`` returns."""
        return self.contract.read(self.state, params)

    def _read(self, message: Message):
        yield self.cpu.serve(self.net.perf.fabric_endorse)
        value = self._value(message.body["params"])
        self.net.network.send(
            Message(
                sender=self.node_id,
                recipient=message.sender,
                msg_type=self.net.msg_read_response,
                body={"txn_id": message.body["txn_id"], "value": value},
                size_bytes=220,
            )
        )


class FabricClient:
    """A Fabric client: endorse at ``q`` peers, order, await the commit event.

    The network names the wire vocabulary (``msg_proposal``,
    ``msg_read``, ``msg_order`` and the ``client_replies`` types).
    FabricCRDT's client specialises the two per-system steps —
    assembling the ordered transaction (:meth:`_transaction`) and
    judging its commit event (:meth:`_judge`) — plus its reply timeout
    and commit-timeout wording.
    """

    reply_timeout = 10.0  # endorsements and reads
    commit_timeout_reason = "commit timeout"

    @classmethod
    def longest_pending(cls) -> float:
        """How long a transaction can legitimately stay unresolved:
        endorsement, then ordering and commit."""
        return cls.reply_timeout + COMMIT_TIMEOUT

    def __init__(self, net: BaselineNetwork, client_id: str) -> None:
        self.net = net
        self.client_id = client_id
        self.rng = net.rng.stream(f"client:{client_id}")
        self._counter = 0
        self._pending: Dict[str, Tuple[Event, List[Any], int]] = {}
        net.network.register(client_id, self._on_message)

    def _on_message(self, message: Message) -> None:
        if message.corrupted:
            return
        if message.msg_type in self.net.client_replies:
            entry = self._pending.get(message.body["txn_id"])
            if entry is None:
                return
            event, responses, needed = entry
            responses.append(message.body)
            if len(responses) >= needed and not event.triggered:
                event.trigger(responses)

    def _next_txn_id(self) -> str:
        self._counter += 1
        return f"{self.client_id}:{self._counter}"

    def _solicit(self, txn_id: str, msg_type: str, params: Dict[str, Any]):
        """Send ``msg_type`` to ``q`` sampled peers and await ``q`` replies.

        Returns the peers and their replies (None on timeout).
        """
        sim = self.net.sim
        quorum = self.net.config.quorum
        peers = self.rng.sample(self.net.node_ids, quorum)
        event = Event(sim)
        self._pending[txn_id] = (event, [], quorum)
        for peer_id in peers:
            self.net.network.send(
                Message(
                    sender=self.client_id,
                    recipient=peer_id,
                    msg_type=msg_type,
                    body={"txn_id": txn_id, "params": params},
                    size_bytes=self.net.perf.proposal_bytes,
                )
            )
        winner = yield AnyOf(sim, [event, sim.timeout(self.reply_timeout)])
        _, replies, _ = self._pending.pop(txn_id)
        return peers, (replies if winner is event else None)

    def submit_modify(self, params: Dict[str, Any]):
        """Full modify lifecycle; returns True on successful commit."""
        sim = self.net.sim
        txn_id = self._next_txn_id()
        self.net.recorder.submitted(txn_id, self.client_id, "modify", sim.now)
        peers, endorsements = yield from self._solicit(txn_id, self.net.msg_proposal, params)
        if endorsements is None:
            self.net.recorder.failed(txn_id, sim.now, "endorsement timeout")
            return False
        transaction, size = self._transaction(txn_id, peers, endorsements)
        commit_event = Event(sim)
        self._pending[txn_id] = (commit_event, [], 1)
        self.net.network.send(
            Message(
                sender=self.client_id,
                recipient=self.net.log.source_id,
                msg_type=self.net.msg_order,
                body=transaction,
                size_bytes=size,
            )
        )
        winner = yield AnyOf(sim, [commit_event, sim.timeout(COMMIT_TIMEOUT)])
        _, events, _ = self._pending.pop(txn_id)
        if winner is not commit_event or not events:
            self.net.recorder.failed(txn_id, sim.now, self.commit_timeout_reason)
            return False
        return self._judge(txn_id, events[0])

    def _transaction(self, txn_id: str, peers: List[str], endorsements: List[Dict[str, Any]]):
        """The transaction to order and its modelled size in bytes."""
        endorsement = endorsements[0]
        transaction = {
            "txn_id": txn_id,
            "client_id": self.client_id,
            "read_set": endorsement["read_set"],
            "write_set": endorsement["write_set"],
            "event_peer": peers[0],
        }
        return transaction, 400 + 60 * (len(transaction["read_set"]) + len(transaction["write_set"]))

    def _judge(self, txn_id: str, event: Dict[str, Any]) -> bool:
        """Record the outcome the commit event reports."""
        now = self.net.sim.now
        if event["valid"]:
            self.net.recorder.committed(txn_id, now)
            return True
        self.net.recorder.failed(txn_id, now, "mvcc conflict")
        return False

    def submit_read(self, params: Dict[str, Any]):
        """Read from q peers (no ordering)."""
        sim = self.net.sim
        txn_id = self._next_txn_id()
        self.net.recorder.submitted(txn_id, self.client_id, "read", sim.now)
        _, responses = yield from self._solicit(txn_id, self.net.msg_read, params)
        if responses is not None:
            self.net.recorder.committed(txn_id, sim.now)
            return [r["value"] for r in responses]
        self.net.recorder.failed(txn_id, sim.now, "read timeout")
        return None


class FabricNetwork(BaselineNetwork):
    """A built Fabric network: peers + Solo orderer + clients.

    FabricCRDT's network is this one with its own message types,
    orderer id and name, block size, and no ordering phase in its
    breakdown.
    """

    system = "fabric"
    node_prefix = "peer"
    replica_class = FabricPeer
    client_class = FabricClient
    msg_proposal, msg_endorsement, msg_order = MSG_PROPOSAL, MSG_ENDORSEMENT, MSG_ORDER
    msg_block, msg_commit_event = MSG_BLOCK, MSG_COMMIT_EVENT
    msg_read, msg_read_response = MSG_READ, MSG_READ_RESPONSE
    msg_block_announce, msg_block_fetch = MSG_BLOCK_ANNOUNCE, MSG_BLOCK_FETCH
    orderer_id, orderer_name = ORDERER_ID, "solo-orderer"
    ordering_phase: Optional[str] = "fabric/P2/Consensus"

    def __init__(self, config: ExperimentConfig) -> None:
        super().__init__(config)
        perf = self.perf
        self.client_replies = (self.msg_endorsement, self.msg_read_response, self.msg_commit_event)
        self._orderer_arrivals: Dict[str, float] = {}
        self.orderer = BatchServer(
            self.sim,
            per_item=perf.fabric_orderer_per_txn,
            batch_timeout=perf.fabric_batch_timeout,
            max_batch=perf.fabric_max_batch,
            on_batch=self._broadcast_block,
            name=self.orderer_name,
        )
        self.queues = {self.orderer_id: self.orderer}
        self.log = OrderedLog(
            self,
            self.orderer_id,
            entry_type=self.msg_block,
            announce_type=self.msg_block_announce,
            fetch_type=self.msg_block_fetch,
            entry_bytes=self._block_bytes,
            on_message=self._orderer_receive,
            name=self.system,
        )

    def _orderer_receive(self, message: Message) -> None:
        if message.msg_type == self.msg_order:
            if self.ordering_phase is not None:
                self._orderer_arrivals[message.body["txn_id"]] = self.sim.now
            self.orderer.enqueue(message.body)

    def _broadcast_block(self, batch: List[Dict[str, Any]]):
        """Deliver a cut block to every peer."""
        if self.ordering_phase is not None:
            now = self.sim.now
            for txn in batch:
                arrived = self._orderer_arrivals.pop(txn["txn_id"], now)
                self.recorder.phase(
                    self.ordering_phase, arrived, now, node=self.orderer_id, txn_id=txn["txn_id"]
                )
        self.log.publish({"index": len(self.log.entries), "transactions": batch})
        return
        yield  # pragma: no cover - marks this as a generator for BatchServer

    @staticmethod
    def _block_bytes(block: Dict[str, Any]) -> int:
        return 200 + sum(
            100 + 60 * (len(txn["read_set"]) + len(txn["write_set"]))
            for txn in block["transactions"]
        )


__all__ = ["FabricNetwork", "FabricClient", "FabricPeer", "ORDERER_ID"]
