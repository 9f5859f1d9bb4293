"""FabricCRDT baseline: Fabric's ordering pipeline + JSON CRDT merges.

FabricCRDT "does not perform an MVCC validation and only merges the
transaction values using JSON CRDT techniques" (Section 9). Its CRDTs
are *state-based*: "for every modification ... the entire object stored
on the ledger must be retrieved and modified and then sent to
organizations to be merged with the existing objects. On FabricCRDT,
the objects gradually become large, negatively affecting the
performance" (Section 10).

Consequences modeled here:

* endorsement retrieves the whole object — CPU cost and reply size grow
  with the object's update history;
* the assembled transaction carries the whole object — wire size grows;
* commit merges update histories — CPU cost grows;
* per the paper's fairness note, the peers keep a *cache* of merged
  documents (we model the cache as the resident `JSONCRDTDocument`);
* transactions taking longer than ``COMMIT_TIMEOUT`` (240 s) are timed
  out and excluded from throughput/latency, as in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.baselines.common import (
    BaselineNetwork,
    BatchServer,
    OrderedLog,
    Replica,
)
from repro.baselines.fabric import FabricClient
from repro.crdt.json_crdt import JSONCRDTDocument
from repro.net.message import Message

if TYPE_CHECKING:
    from repro.bench.config import ExperimentConfig

MSG_PROPOSAL = "fabriccrdt.proposal"
MSG_ENDORSEMENT = "fabriccrdt.endorsement"
MSG_ORDER = "fabriccrdt.order"
MSG_BLOCK = "fabriccrdt.block"
MSG_COMMIT_EVENT = "fabriccrdt.commit_event"
MSG_READ = "fabriccrdt.read"
MSG_READ_RESPONSE = "fabriccrdt.read_response"

MSG_BLOCK_ANNOUNCE = "fabriccrdt.block_announce"
MSG_BLOCK_FETCH = "fabriccrdt.block_fetch"

ORDERER_ID = "fabriccrdt-orderer"

Update = Tuple[str, Tuple[str, ...], Any]  # (document key, path, value)


def voting_updates(params: Dict[str, Any]) -> List[Update]:
    """One JSON-CRDT update on the elected party's document."""
    key = f"voting/{params['election']}/{params['party']}"
    return [(key, (params["voter"],), True)]


def auction_updates(params: Dict[str, Any]) -> List[Update]:
    key = f"auction/{params['auction']}"
    return [(key, (params["bidder"],), params["cumulative"])]


def synthetic_updates(params: Dict[str, Any]) -> List[Update]:
    return [
        (f"synthetic/obj{index}", (params["client_id"],), params.get("value", 1))
        for index in params["object_indexes"]
    ]


APP_UPDATES = {
    "voting": voting_updates,
    "auction": auction_updates,
    "synthetic": synthetic_updates,
}


def read_value(documents: Dict[str, JSONCRDTDocument], app: str, params: Dict[str, Any]) -> Any:
    if app == "voting":
        key = f"voting/{params['election']}/{params['party']}"
        doc = documents.get(key)
        if doc is None:
            return 0
        return sum(1 for v in doc.value().values() if v is True)
    if app == "auction":
        doc = documents.get(f"auction/{params['auction']}")
        if doc is None:
            return None
        bids = doc.value()
        if not bids:
            return None
        bidder = max(sorted(bids), key=lambda b: bids[b] if isinstance(bids[b], (int, float)) else 0)
        return {"bidder": bidder, "amount": bids[bidder]}
    docs = [documents.get(f"synthetic/obj{i}") for i in params["object_indexes"]]
    return [doc.value() if doc else None for doc in docs]


class FabricCRDTPeer(Replica):
    """A peer holding state-based JSON CRDT documents."""

    def __init__(self, net: "FabricCRDTNetwork", node_id: str) -> None:
        # CRDT merges commute, but blocks still apply in order through
        # the shared applier for its dedup and gap repair.
        super().__init__(net, node_id, self._apply_block, "blocks")
        self.documents: Dict[str, JSONCRDTDocument] = {}
        self.committed = 0

    def document(self, key: str) -> JSONCRDTDocument:
        if key not in self.documents:
            self.documents[key] = JSONCRDTDocument()
        return self.documents[key]

    def document_size(self, key: str) -> int:
        doc = self.documents.get(key)
        return doc.size() if doc is not None else 0

    def state_snapshot(self) -> Dict[str, Any]:
        return {key: self.documents[key].snapshot() for key in sorted(self.documents)}

    def _on_message(self, message: Message) -> None:
        if message.corrupted:
            return
        if message.msg_type == MSG_PROPOSAL:
            self.net.sim.process(self._endorse(message), name=f"{self.node_id}.endorse")
        elif message.msg_type == MSG_BLOCK:
            self.applier.offer(message.body["index"], message.body["transactions"])
        elif message.msg_type == MSG_BLOCK_ANNOUNCE:
            self.net.log.on_announce(self.applier, message.body)
        elif message.msg_type == MSG_READ:
            self.net.sim.process(self._read(message), name=f"{self.node_id}.read")

    def _endorse(self, message: Message):
        perf = self.net.perf
        arrived = self.net.sim.now
        body = message.body
        updates = APP_UPDATES[self.net.config.app](body["params"])
        # Retrieving the entire object costs time proportional to its
        # accumulated update history (state-based CRDT).
        history = sum(self.document_size(key) for key, _, _ in updates)
        yield self.cpu.serve(
            perf.fabric_endorse + perf.fabriccrdt_merge_per_update * history
        )
        self.net.recorder.phase(
            "fabriccrdt/P1/Endorse",
            arrived,
            self.net.sim.now,
            node=self.node_id,
            txn_id=body["txn_id"],
            attrs={"history": history},
        )
        self.net.network.send(
            Message(
                sender=self.node_id,
                recipient=message.sender,
                msg_type=MSG_ENDORSEMENT,
                body={"txn_id": body["txn_id"], "updates": updates, "history": history},
                size_bytes=300 + perf.fabriccrdt_bytes_per_update * history,
            )
        )

    def _apply_block(self, transactions: List[Dict[str, Any]]):
        perf = self.net.perf
        for txn in transactions:
            arrived = self.net.sim.now
            history = sum(self.document_size(key) for key, _, _ in txn["updates"])
            yield self.cpu.serve(
                perf.fabriccrdt_merge_base + perf.fabriccrdt_merge_per_update * history
            )
            self.net.recorder.phase(
                "fabriccrdt/P3/Merge",
                arrived,
                self.net.sim.now,
                node=self.node_id,
                txn_id=txn["txn_id"],
                attrs={"history": history},
            )
            for key, path, value in txn["updates"]:
                self.document(key).update(
                    path, value, txn["client_id"], txn["counter"]
                )
            self.committed += 1
            if txn["event_peer"] == self.node_id:
                self.net.network.send(
                    Message(
                        sender=self.node_id,
                        recipient=txn["client_id"],
                        msg_type=MSG_COMMIT_EVENT,
                        body={"txn_id": txn["txn_id"], "valid": True},
                        size_bytes=160,
                    )
                )

    def _read(self, message: Message):
        perf = self.net.perf
        yield self.cpu.serve(perf.fabric_endorse)
        value = read_value(self.documents, self.net.config.app, message.body["params"])
        self.net.network.send(
            Message(
                sender=self.node_id,
                recipient=message.sender,
                msg_type=MSG_READ_RESPONSE,
                body={"txn_id": message.body["txn_id"], "value": value},
                size_bytes=220,
            )
        )


class FabricCRDTClient(FabricClient):
    """Endorse (retrieve object), order, await merge notification."""

    reply_timeout = 30.0
    commit_timeout_reason = "timeout (240s cap)"

    def _transaction(self, txn_id: str, peers: List[str], endorsements: List[Dict[str, Any]]):
        history = max(e["history"] for e in endorsements)
        transaction = {
            "txn_id": txn_id,
            "client_id": self.client_id,
            "counter": self._counter,
            "updates": endorsements[0]["updates"],
            "event_peer": peers[0],
        }
        # The transaction carries the whole (retrieved) object.
        return transaction, 400 + self.net.perf.fabriccrdt_bytes_per_update * history

    def _judge(self, txn_id: str, event: Dict[str, Any]) -> bool:
        # No MVCC validation: every ordered transaction merges.
        self.net.recorder.committed(txn_id, self.net.sim.now)
        return True


class FabricCRDTNetwork(BaselineNetwork):
    """A built FabricCRDT network."""

    system = "fabriccrdt"
    node_prefix = "peer"
    replica_class = FabricCRDTPeer
    client_class = FabricCRDTClient
    msg_proposal, msg_read, msg_order = MSG_PROPOSAL, MSG_READ, MSG_ORDER
    client_replies = (MSG_ENDORSEMENT, MSG_READ_RESPONSE, MSG_COMMIT_EVENT)

    def __init__(self, config: ExperimentConfig) -> None:
        super().__init__(config)
        perf = self.perf
        self.orderer = BatchServer(
            self.sim,
            per_item=perf.fabric_orderer_per_txn,
            batch_timeout=perf.fabric_batch_timeout,
            max_batch=perf.fabric_max_batch,
            on_batch=self._broadcast_block,
            name="fabriccrdt-orderer",
        )
        self.queues = {ORDERER_ID: self.orderer}
        self.log = OrderedLog(
            self,
            ORDERER_ID,
            entry_type=MSG_BLOCK,
            announce_type=MSG_BLOCK_ANNOUNCE,
            fetch_type=MSG_BLOCK_FETCH,
            entry_bytes=lambda block: 200 + 150 * len(block["transactions"]),
            on_message=self._orderer_receive,
            name="fabriccrdt",
        )

    def _orderer_receive(self, message: Message) -> None:
        if message.msg_type == MSG_ORDER:
            self.orderer.enqueue(message.body)

    def _broadcast_block(self, batch: List[Dict[str, Any]]):
        self.log.publish({"index": len(self.log.entries), "transactions": batch})
        return
        yield  # pragma: no cover - marks this as a generator for BatchServer


__all__ = [
    "FabricCRDTNetwork",
    "FabricCRDTClient",
    "FabricCRDTPeer",
]
