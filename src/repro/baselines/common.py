"""The skeleton every baseline system runs on.

Each baseline file keeps only its coordination structure (Fabric's
ordering service, BIDL's sequencer and consensus leader, Sync
HotStuff's leader, FabricCRDT's growing state objects); everything
else is here, once:

* :class:`BaselineSettings` — the one settings class; each network
  validates the fields it reads.
* :class:`BaselineNetwork` — the simulation shell: simulator, RNG
  registry, network, explore install, recorder (which also feeds the
  trace), the replica list, clients, observability and the convergence
  check.
* :class:`Replica` — a replica node's CPU and its in-order application
  of the source's log.
* :class:`OrderedLog` — the indexed log one source (orderer, sequencer,
  leader) disseminates, and the repair protocol around it: periodic
  announcements of the latest index and re-sends on fetch.
* :class:`InOrderApplier` — per-replica gap-repairing in-order delivery
  of that log: buffers out-of-order entries, applies them strictly by
  index through a single process, and asks the source to re-send from
  the first missing index when no progress is made — which makes the
  same mechanism serve message loss, crash recovery, and healed
  partitions (see ``repro.faults``).
* :class:`SubmitClient` — submit to the ordering node and await the
  commit event (BIDL, Sync HotStuff).
* :class:`BatchServer` — a single-server queue that accumulates items
  and cuts batches by size or timeout; models the Solo orderer, the
  BIDL sequencer/consensus leader, and the Sync HotStuff leader.
* :class:`Nic` — a capacity-one resource modeling a node's outgoing
  link: broadcasting a block to n peers serializes n copies through it.
* :class:`VersionedState` — the world state for read/write-set systems
  (key → (value, version)); MVCC validation compares read-set versions
  against it.
* :class:`FabricStyleContract` and the voting/auction/synthetic
  implementations — contracts that *simulate* execution by producing a
  read-set (keys + versions) and a write-set (keys + values). These
  follow the best practices the paper cites for such systems: the vote
  tally and the highest bid live in single aggregate keys, which is
  exactly what makes them contended under concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.perf import PerfModel
from repro.core.recording import TransactionRecorder
from repro.errors import ConfigError, ContractError
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.events import AnyOf, Event
from repro.sim.nondeterminism import ExploreProfile
from repro.sim.resources import Resource, Service
from repro.sim.rng import RngRegistry

# The paper times transactions out (and excludes them) after 240 s.
COMMIT_TIMEOUT = 240.0


class Nic:
    """A node's outgoing network interface (serializes broadcasts)."""

    def __init__(self, sim: Simulator, bandwidth_bytes_per_s: float) -> None:
        self._resource = Resource(sim, capacity=1)
        self.bandwidth = bandwidth_bytes_per_s

    def transmit(self, total_bytes: float) -> Service:
        """Hold the link while ``total_bytes`` serialize onto it."""
        return self._resource.serve(total_bytes / self.bandwidth)


class VersionedState:
    """Key → (value, version) world state with MVCC semantics."""

    def __init__(self) -> None:
        self._state: Dict[str, Tuple[Any, int]] = {}

    def get(self, key: str) -> Tuple[Any, int]:
        """Value and version (missing keys read as (None, 0))."""
        return self._state.get(key, (None, 0))

    def value(self, key: str) -> Any:
        return self.get(key)[0]

    def version(self, key: str) -> int:
        return self.get(key)[1]

    def put(self, key: str, value: Any) -> None:
        _, version = self.get(key)
        self._state[key] = (value, version + 1)

    def mvcc_check(self, read_set: Sequence[Tuple[str, int]]) -> bool:
        """True iff every read key still has its endorsed version."""
        return all(self.version(key) == version for key, version in read_set)

    def apply_write_set(self, write_set: Sequence[Tuple[str, Any]]) -> None:
        for key, value in write_set:
            self.put(key, value)

    def snapshot(self) -> Dict[str, Tuple[Any, int]]:
        """Canonical (key-sorted) copy for convergence checks."""
        return dict(sorted(self._state.items()))

    def __len__(self) -> int:
        return len(self._state)


ReadSet = List[Tuple[str, int]]
WriteSet = List[Tuple[str, Any]]


class FabricStyleContract:
    """A read/write-set contract for order-execute-validate systems."""

    contract_id: str = ""

    def simulate(self, state: VersionedState, params: Dict[str, Any]) -> Tuple[ReadSet, WriteSet]:
        """Endorsement-time execution: produce read and write sets."""
        raise NotImplementedError

    def read(self, state: VersionedState, params: Dict[str, Any]) -> Any:
        """Query-time execution against the peer's current state."""
        raise NotImplementedError


class FabricVotingContract(FabricStyleContract):
    """Voting on a read/write-set system.

    The per-party tally is one aggregate key (the cited best practice
    for vote counting), so concurrent votes for the same party carry
    the same read version and all but the first in a block fail MVCC —
    the paper's observation that up to 90 % of voting transactions fail
    on Fabric.
    """

    contract_id = "voting"

    @staticmethod
    def _tally_key(election: str, party: str) -> str:
        return f"voting/{election}/{party}/count"

    @staticmethod
    def _voter_key(election: str, voter: str) -> str:
        return f"voting/{election}/voter/{voter}"

    def simulate(self, state: VersionedState, params: Dict[str, Any]) -> Tuple[ReadSet, WriteSet]:
        election, party = params["election"], params["party"]
        voter = params["voter"]
        tally_key = self._tally_key(election, party)
        voter_key = self._voter_key(election, voter)
        tally_value, tally_version = state.get(tally_key)
        previous_vote, voter_version = state.get(voter_key)
        read_set: ReadSet = [(tally_key, tally_version), (voter_key, voter_version)]
        write_set: WriteSet = [
            (tally_key, (tally_value or 0) + 1),
            (voter_key, party),
        ]
        if previous_vote is not None and previous_vote != party:
            # Re-vote: decrement the old party's tally too.
            old_key = self._tally_key(election, previous_vote)
            old_value, old_version = state.get(old_key)
            read_set.append((old_key, old_version))
            write_set.append((old_key, max(0, (old_value or 0) - 1)))
        return read_set, write_set

    def read(self, state: VersionedState, params: Dict[str, Any]) -> Any:
        return state.value(self._tally_key(params["election"], params["party"])) or 0


class FabricAuctionContract(FabricStyleContract):
    """Auction on a read/write-set system.

    The highest bid is one aggregate key per auction — concurrent bids
    on the same auction conflict under MVCC.
    """

    contract_id = "auction"

    @staticmethod
    def _highest_key(auction: str) -> str:
        return f"auction/{auction}/highest"

    @staticmethod
    def _bid_key(auction: str, bidder: str) -> str:
        return f"auction/{auction}/bid/{bidder}"

    def simulate(self, state: VersionedState, params: Dict[str, Any]) -> Tuple[ReadSet, WriteSet]:
        auction, bidder = params["auction"], params["bidder"]
        amount = params["amount"]
        if not isinstance(amount, (int, float)) or amount <= 0:
            raise ContractError(f"bid increase must be positive, got {amount!r}")
        bid_key = self._bid_key(auction, bidder)
        highest_key = self._highest_key(auction)
        current_bid, bid_version = state.get(bid_key)
        highest, highest_version = state.get(highest_key)
        new_bid = (current_bid or 0) + amount
        read_set: ReadSet = [(bid_key, bid_version), (highest_key, highest_version)]
        write_set: WriteSet = [(bid_key, new_bid)]
        if highest is None or new_bid > highest.get("amount", 0):
            write_set.append((highest_key, {"bidder": bidder, "amount": new_bid}))
        return read_set, write_set

    def read(self, state: VersionedState, params: Dict[str, Any]) -> Any:
        return state.value(self._highest_key(params["auction"]))


class FabricSyntheticContract(FabricStyleContract):
    """Synthetic workload on a read/write-set system."""

    contract_id = "synthetic"

    def simulate(self, state: VersionedState, params: Dict[str, Any]) -> Tuple[ReadSet, WriteSet]:
        read_set: ReadSet = []
        write_set: WriteSet = []
        for index in params["object_indexes"]:
            key = f"synthetic/obj{index}"
            value, version = state.get(key)
            read_set.append((key, version))
            write_set.append((key, (value or 0) + 1))
        return read_set, write_set

    def read(self, state: VersionedState, params: Dict[str, Any]) -> Any:
        return [state.value(f"synthetic/obj{i}") for i in params["object_indexes"]]


FABRIC_CONTRACTS: Dict[str, Callable[[], FabricStyleContract]] = {
    "voting": FabricVotingContract,
    "auction": FabricAuctionContract,
    "synthetic": FabricSyntheticContract,
}


class BatchServer:
    """Single-server queue with batch cutting (orderer/sequencer/leader).

    Items are enqueued at any time; the server cuts a batch when
    ``max_batch`` items are waiting or ``batch_timeout`` elapsed since
    the first waiting item, serves it for ``per_item * len(batch)``
    seconds of CPU, then hands it to ``on_batch`` (a generator-process
    function receiving the batch's item list).
    """

    def __init__(
        self,
        sim: Simulator,
        per_item: float,
        batch_timeout: float,
        max_batch: int,
        on_batch: Callable[[List[Any]], Any],
        name: str = "batch-server",
    ) -> None:
        self._sim = sim
        self.per_item = per_item
        self.batch_timeout = batch_timeout
        self.max_batch = max(1, max_batch)
        self._on_batch = on_batch
        self.name = name
        self._queue: List[Tuple[Any, float]] = []
        self._wakeup: Optional[Event] = None
        self.batches_cut = 0
        self.items_processed = 0
        sim.process(self._serve_loop(), name=name)

    def enqueue(self, item: Any) -> None:
        self._queue.append((item, self._sim.now))
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.trigger()

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def _serve_loop(self):
        while True:
            if not self._queue:
                self._wakeup = Event(self._sim)
                yield self._wakeup
                self._wakeup = None
            # Wait for a full batch or the batch timeout, whichever
            # comes first (Solo-orderer block cutting).
            first_at = self._queue[0][1]
            while len(self._queue) < self.max_batch:
                remaining = self.batch_timeout - (self._sim.now - first_at)
                # The epsilon guard matters: a subnormal remainder would
                # schedule a timeout at a float time equal to `now`,
                # re-enter this loop at the same instant, and spin.
                if remaining <= 1e-9:
                    break
                self._wakeup = Event(self._sim)
                yield AnyOf(self._sim, [self._wakeup, self._sim.timeout(remaining)])
                self._wakeup = None
            batch = [item for item, _ in self._queue[: self.max_batch]]
            self._queue = self._queue[self.max_batch :]
            # Serving the batch occupies the single server.
            yield self._sim.timeout(self.per_item * len(batch))
            self.batches_cut += 1
            self.items_processed += len(batch)
            yield from self._on_batch(batch)


class InOrderApplier:
    """Strictly in-order application of an indexed entry stream.

    The ordered baselines (Fabric, FabricCRDT, BIDL, Sync HotStuff)
    each disseminate an append-only log — blocks, sequenced
    transactions, proposals — from a single source. A replica must
    apply entries in index order or its state diverges from peers that
    saw a different arrival order. This applier provides that, plus
    the repair loop that makes the stream survive faults:

    * ``offer(index, payload)`` buffers an entry and returns False for
      duplicates (the dedup that makes re-sends and duplicated
      messages harmless);
    * one drain process applies buffered entries in index order via
      the ``apply_entry`` generator (CPU serving happens inside it);
    * a gap watchdog fires after ``gap_timeout`` without progress and
      calls ``request_resend(next_index)`` so the source can re-send —
      covering entries lost to link faults, partitions, or a crash;
    * ``on_announce(latest)`` lets a periodic source heartbeat reveal
      missed *tail* entries that no later message would expose.

    Fully deterministic: no randomness, all timing through the
    simulator.
    """

    def __init__(
        self,
        sim: Simulator,
        apply_entry: Callable[[Any], Any],
        request_resend: Callable[[int], None],
        gap_timeout: float = 0.5,
        name: str = "inorder",
    ) -> None:
        self._sim = sim
        self._apply_entry = apply_entry
        self._request_resend = request_resend
        self.gap_timeout = gap_timeout
        self.name = name
        self.next_index = 0
        self._pending: Dict[int, Any] = {}
        self._applying = False
        self._watching = False
        self._announced = -1

    def seen(self, index: int) -> bool:
        return index < self.next_index or index in self._pending

    def offer(self, index: int, payload: Any) -> bool:
        """Accept an entry; False when it is a duplicate."""
        if self.seen(index):
            return False
        self._pending[index] = payload
        if not self._applying:
            self._applying = True
            self._sim.process(self._drain(), name=f"{self.name}.drain")
        if index > self.next_index:
            self._watch_gap()
        return True

    def on_announce(self, latest: int) -> None:
        """The source's heartbeat: its log currently ends at ``latest``."""
        if latest >= self.next_index:
            self._announced = max(self._announced, latest)
            self._watch_gap()

    def request_catchup(self) -> None:
        """Proactively ask the source for everything we have not applied.

        Used by crash recovery; a no-op resend request when nothing was
        missed (the source has nothing newer to send).
        """
        self._request_resend(self.next_index)

    def _gap_exists(self) -> bool:
        if self.next_index in self._pending:
            return False
        return bool(self._pending) or self._announced >= self.next_index

    def _watch_gap(self) -> None:
        if self._watching:
            return
        self._watching = True
        self._sim.process(self._gap_watchdog(), name=f"{self.name}.gap")

    def _gap_watchdog(self):
        try:
            while True:
                progress_mark = self.next_index
                yield self._sim.timeout(self.gap_timeout)
                if not self._gap_exists():
                    return
                if self.next_index == progress_mark:
                    self._request_resend(self.next_index)
        finally:
            self._watching = False

    def _drain(self):
        try:
            while self.next_index in self._pending:
                payload = self._pending.pop(self.next_index)
                # Advance before applying so a duplicate of this entry
                # arriving mid-application is recognized as seen.
                self.next_index += 1
                yield from self._apply_entry(payload)
        finally:
            self._applying = False


def _log_index(body: Any, key: str) -> Optional[int]:
    """``body[key]`` when it is an int log index (bool excluded), else None.

    Repair bodies arrive from other nodes; a malformed one is dropped
    instead of raising out of the handler and aborting the run.
    """
    value = body.get(key) if isinstance(body, dict) else None
    return value if type(value) is int else None


class OrderedLog:
    """One source's indexed log and the repair protocol around it.

    Fabric's and FabricCRDT's orderers, BIDL's sequencer and Sync
    HotStuff's leader each disseminate an append-only log — blocks,
    sequenced transactions, proposals — to every replica. The log owns
    the source node: it answers a fetch by re-sending every entry from
    the requested index, hands every other intact message to
    ``on_message``, and once per simulated second announces its latest
    index to every replica, which exposes entries lost at the tail that
    no later message would reveal. The replica half of the protocol
    (:meth:`request`, :meth:`on_announce`) is here too, so the repair
    wire format lives in one place.

    ``entries`` holds each entry's message body; ``entry_bytes(body)``
    is its modelled size on the wire.
    """

    def __init__(
        self,
        net: "BaselineNetwork",
        source_id: str,
        entry_type: str,
        announce_type: str,
        fetch_type: str,
        entry_bytes: Callable[[Any], int],
        on_message: Callable[[Message], None],
        name: str,
    ) -> None:
        self.net = net
        self.source_id = source_id
        self.entry_type = entry_type
        self.announce_type = announce_type
        self.fetch_type = fetch_type
        self.entry_bytes = entry_bytes
        self._on_message = on_message
        self.entries: List[Any] = []
        net.network.register(source_id, self._receive)
        net.sim.process(self._announce_loop(), name=f"{name}.announce")

    def publish(self, body: Any) -> None:
        """Append an entry and send it to every replica."""
        self.entries.append(body)
        # Locals: for BIDL this runs once per sequenced transaction.
        send, source_id, entry_type = self.net.network.send, self.source_id, self.entry_type
        size = self.entry_bytes(body)
        for node_id in self.net.replica_ids:
            send(
                Message(
                    sender=source_id,
                    recipient=node_id,
                    msg_type=entry_type,
                    body=body,
                    size_bytes=size,
                )
            )

    def request(self, replica_id: str, from_index: int) -> None:
        """Replica side: ask the source to re-send ``from_index``.. ."""
        self.net.network.send(
            Message(
                sender=replica_id,
                recipient=self.source_id,
                msg_type=self.fetch_type,
                body={"from": from_index},
                size_bytes=96,
            )
        )

    def on_announce(self, applier: "InOrderApplier", body: Any) -> None:
        """Replica side: hand an announced latest index to ``applier``."""
        latest = _log_index(body, "latest")
        if latest is not None:
            applier.on_announce(latest)

    def _receive(self, message: Message) -> None:
        if message.corrupted:
            return
        if message.msg_type != self.fetch_type:
            self._on_message(message)
            return
        start = _log_index(message.body, "from")
        if start is None:
            return
        for index in range(max(0, start), len(self.entries)):
            body = self.entries[index]
            self.net.network.send(
                Message(
                    sender=self.source_id,
                    recipient=message.sender,
                    msg_type=self.entry_type,
                    body=body,
                    size_bytes=self.entry_bytes(body),
                )
            )

    def _announce_loop(self):
        sim, network = self.net.sim, self.net.network
        while True:
            yield sim.timeout(1.0)
            latest = len(self.entries) - 1
            if latest < 0:
                continue
            for node_id in self.net.replica_ids:
                network.send(
                    Message(
                        sender=self.source_id,
                        recipient=node_id,
                        msg_type=self.announce_type,
                        body={"latest": latest},
                        size_bytes=64,
                    )
                )


class Replica:
    """A replica of an ordered baseline: a CPU and the source's log.

    ``apply_entry`` is the generator that applies one log entry;
    subclasses define ``_on_message`` and keep their application state
    in ``state`` (or override :meth:`snapshot`).
    """

    def __init__(
        self, net: "BaselineNetwork", node_id: str, apply_entry: Callable[[Any], Any], stream: str
    ) -> None:
        self.net = net
        self.node_id = node_id
        self.cpu = Resource(net.sim, capacity=net.settings.perf.vcpus)
        # The applier also dedups re-sent and duplicated entries and
        # repairs gaps after message loss, partitions, or a crash by
        # fetching from the source's log (see repro.faults).
        self.applier = InOrderApplier(
            net.sim, apply_entry, self._request_entries, name=f"{node_id}.{stream}"
        )
        net.network.register(node_id, self._on_message)

    def _request_entries(self, from_index: int) -> None:
        self.net.log.request(self.node_id, from_index)

    def snapshot(self) -> Any:
        """Canonical application state, for convergence and fingerprints."""
        return self.state.snapshot()


@dataclass
class BaselineSettings:
    """Configuration of a baseline network.

    Each network validates only the fields it reads: the Fabric pair
    the quorum, BIDL and Sync HotStuff the organization count, Fabric
    the orderer type, all four the app.
    """

    num_orgs: int = 8
    quorum: int = 4
    app: str = "voting"
    seed: int = 0
    perf: PerfModel = field(default_factory=PerfModel)
    # Controlled nondeterminism for schedule exploration
    # (repro.sim.nondeterminism); None keeps the golden-seed order.
    explore: Optional[ExploreProfile] = None
    # Fabric only. The paper benchmarks the Solo ordering service;
    # "raft" models the crash-fault-tolerant production orderer (leader
    # + followers, a block ships only after a majority of the cluster
    # acknowledged it). The paper notes Raft is not BFT — neither
    # variant tolerates a Byzantine orderer.
    orderer_type: str = "solo"


class BaselineNetwork:
    """The simulation shell of a baseline network.

    A subclass names its ``system``, replica and client classes and its
    clients' wire vocabulary (message types, see the client classes),
    validates the settings it reads, calls this constructor, then
    builds its source: the :class:`OrderedLog` as ``log`` and its batch
    servers in ``queues`` (node id → server, sampled as
    ``node/queue/depth``).
    """

    system = ""  # the name the runner, faults and checkers use
    replica_prefix = "org"
    replica_class: Callable[["BaselineNetwork", str], Replica]
    client_class: Callable[["BaselineNetwork", str], Any]
    log: OrderedLog
    queues: Dict[str, BatchServer]

    def __init__(self, settings: BaselineSettings) -> None:
        if settings.app not in FABRIC_CONTRACTS:
            raise ConfigError(
                f"unknown app {settings.app!r}; choose from {sorted(FABRIC_CONTRACTS)}"
            )
        self.settings = settings
        self.sim = Simulator()
        self.rng = RngRegistry(seed=settings.seed)
        self.network = Network(self.sim, self.rng.stream("net"))
        if settings.explore is not None:
            # Before anything is scheduled, so heap keys stay homogeneous.
            settings.explore.install(self.sim, self.network)
        self.recorder = TransactionRecorder()
        self.replicas = [
            self.replica_class(self, f"{self.replica_prefix}{index}")
            for index in range(settings.num_orgs)
        ]
        self.replica_ids = [replica.node_id for replica in self.replicas]
        self.clients: List[Any] = []

    def attach_observability(self, obs) -> None:
        """Wire a :class:`repro.obs.Observability` into this network."""
        self.recorder.trace = self.network.tracer = obs.recorder
        sampler = obs.bind(self.sim)
        if sampler is not None:
            for replica in self.replicas:
                sampler.watch_resource(replica.node_id, "cpu", replica.cpu)
            for node_id, server in self.queues.items():
                sampler.watch_gauge(
                    node_id, "node/queue/depth", lambda server=server: server.queue_length
                )
            sampler.watch_network(self.network)
            sampler.start()

    def add_client(self, name: Optional[str] = None):
        client = self.client_class(self, name or f"client{len(self.clients)}")
        self.clients.append(client)
        return client

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    def converged(self) -> bool:
        """All replicas hold identical state (they apply the same log)."""
        snapshots = [replica.snapshot() for replica in self.replicas]
        return all(snapshot == snapshots[0] for snapshot in snapshots)


class SubmitClient:
    """Submits a transaction to the ordering node, awaits the commit event.

    The BIDL and Sync HotStuff client: reads and modifies travel the
    same ordered pipeline (BFT reads). As for every baseline client,
    the network names the wire vocabulary — here the message types
    (``msg_submit``, ``msg_commit_event``) and the modelled transaction
    size (``txn_bytes``); the ordering node is its log's source.
    """

    @classmethod
    def longest_pending(cls) -> float:
        """How long a transaction can legitimately stay unresolved."""
        return COMMIT_TIMEOUT

    def __init__(self, net: BaselineNetwork, client_id: str) -> None:
        self.net = net
        self.client_id = client_id
        self.rng = net.rng.stream(f"client:{client_id}")
        self._counter = 0
        self._pending: Dict[str, Event] = {}
        net.network.register(client_id, self._on_message)

    def _on_message(self, message: Message) -> None:
        if message.corrupted or message.msg_type != self.net.msg_commit_event:
            return
        event = self._pending.get(message.body["txn_id"])
        if event is not None and not event.triggered:
            event.trigger(message.body)

    def _submit(self, kind: str, params: Dict[str, Any]):
        net = self.net
        sim = net.sim
        self._counter += 1
        txn_id = f"{self.client_id}:{self._counter}"
        net.recorder.submitted(txn_id, self.client_id, kind, sim.now)
        event = Event(sim)
        self._pending[txn_id] = event
        net.network.send(
            Message(
                sender=self.client_id,
                recipient=net.log.source_id,
                msg_type=net.msg_submit,
                body={
                    "txn_id": txn_id,
                    "client_id": self.client_id,
                    "kind": kind,
                    "params": params,
                    "event_peer": self.rng.choice(net.replica_ids),
                },
                size_bytes=net.txn_bytes,
            )
        )
        winner = yield AnyOf(sim, [event, sim.timeout(COMMIT_TIMEOUT)])
        del self._pending[txn_id]
        if winner is event:
            net.recorder.committed(txn_id, sim.now)
            return winner.value.get("value", True) if isinstance(winner.value, dict) else True
        net.recorder.failed(txn_id, sim.now, "timeout")
        return None

    def submit_modify(self, params: Dict[str, Any]):
        return self._submit("modify", params)

    def submit_read(self, params: Dict[str, Any]):
        return self._submit("read", params)


__all__ = [
    "COMMIT_TIMEOUT",
    "BaselineNetwork",
    "BaselineSettings",
    "BatchServer",
    "InOrderApplier",
    "OrderedLog",
    "Replica",
    "SubmitClient",
    "FABRIC_CONTRACTS",
    "FabricAuctionContract",
    "FabricStyleContract",
    "FabricSyntheticContract",
    "FabricVotingContract",
    "Nic",
    "ReadSet",
    "VersionedState",
    "WriteSet",
]
