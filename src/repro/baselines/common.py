"""Shared building blocks for the baseline systems.

* :class:`VersionedState` — the peers' world state for read/write-set
  systems (key → (value, version)); MVCC validation compares read-set
  versions against it.
* :class:`FabricStyleContract` and the voting/auction/synthetic
  implementations — contracts that *simulate* execution by producing a
  read-set (keys + versions) and a write-set (keys + values). These
  follow the best practices the paper cites for such systems: the vote
  tally and the highest bid live in single aggregate keys, which is
  exactly what makes them contended under concurrency.
* :class:`BatchServer` — a single-server queue that accumulates items
  and cuts batches by size or timeout; models the Solo orderer, the
  BIDL sequencer/consensus leader, and the Sync HotStuff leader.
* :class:`Nic` — a capacity-one resource modeling a node's outgoing
  link: broadcasting a block to n peers serializes n copies through it.
* :class:`InOrderApplier` — per-replica gap-repairing in-order delivery
  of an indexed stream (blocks, sequenced transactions, proposals).
  Every ordered baseline disseminates an indexed log from one source;
  the applier buffers out-of-order entries, applies them strictly by
  index through a single process, and asks the source to re-send from
  the first missing index when no progress is made — which makes the
  same mechanism serve message loss, crash recovery, and healed
  partitions (see ``repro.faults``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ContractError
from repro.net.message import Message
from repro.sim.core import Simulator
from repro.sim.events import AnyOf, Event
from repro.sim.resources import Resource


class Nic:
    """A node's outgoing network interface (serializes broadcasts)."""

    def __init__(self, sim: Simulator, bandwidth_bytes_per_s: float) -> None:
        self._resource = Resource(sim, capacity=1)
        self.bandwidth = bandwidth_bytes_per_s

    def transmit(self, total_bytes: float):
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


@dataclass
class Batch:
    """A cut batch with the items' enqueue timestamps."""

    items: List[Any]
    enqueued_at: List[float]


class BatchServer:
    """Single-server queue with batch cutting (orderer/sequencer/leader).

    Items are enqueued at any time; the server cuts a batch when
    ``max_batch`` items are waiting or ``batch_timeout`` elapsed since
    the first waiting item, serves it for ``per_item * len(batch)``
    seconds of CPU, then hands it to ``on_batch`` (a generator-process
    function receiving the batch).
    """

    def __init__(
        self,
        sim: Simulator,
        per_item: float,
        batch_timeout: float,
        max_batch: int,
        on_batch: Callable[[Batch], Any],
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
                winner_event = self._wakeup
                yield_event = yield AnyOf(self._sim, [winner_event, self._sim.timeout(remaining)])
                self._wakeup = None
                del yield_event
            batch_items = self._queue[: self.max_batch]
            self._queue = self._queue[self.max_batch :]
            batch = Batch(
                items=[item for item, _ in batch_items],
                enqueued_at=[at for _, at in batch_items],
            )
            # Serving the batch occupies the single server.
            yield self._sim.timeout(self.per_item * len(batch.items))
            self.batches_cut += 1
            self.items_processed += len(batch.items)
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
        self.duplicates = 0
        self.repairs_requested = 0

    def seen(self, index: int) -> bool:
        return index < self.next_index or index in self._pending

    def offer(self, index: int, payload: Any) -> bool:
        """Accept an entry; False when it is a duplicate."""
        if self.seen(index):
            self.duplicates += 1
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
        self.repairs_requested += 1
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
                    self.repairs_requested += 1
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


def announce_loop(sim, network, sender: str, recipients, latest, msg_type: str, interval: float = 1.0):
    """Generator: periodically announce a source log's latest index.

    ``recipients`` and ``latest`` are callables so membership and log
    length are read at send time. Drives
    :meth:`InOrderApplier.on_announce` on the receiving side.
    """
    while True:
        yield sim.timeout(interval)
        latest_index = latest()
        if latest_index < 0:
            continue
        for node_id in recipients():
            network.send(
                Message(
                    sender=sender,
                    recipient=node_id,
                    msg_type=msg_type,
                    body={"latest": latest_index},
                    size_bytes=64,
                )
            )


__all__ = [
    "Batch",
    "BatchServer",
    "InOrderApplier",
    "announce_loop",
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
