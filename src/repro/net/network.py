"""The simulated network connecting all nodes.

Nodes register a delivery handler under their identifier; ``send``
schedules delivery after a sampled link delay, applying loss,
duplication, and corruption per the configured fault model. Partitions
can be installed to exercise the CAP discussion of Section 3.

Partition semantics: a partition is a list of groups; traffic flows
only within a group. Nodes not listed in *any* group are unconstrained
(they can reach and be reached by everyone) — this lets a schedule
split the organizations without accidentally isolating clients or
orderers that the schedule author did not mention. Connectivity is
checked both at send time and again at delivery time, so a message
already in flight when a partition is installed is dropped rather than
leaking across the cut (and a message sent during a partition cannot
outlive a heal, because it was dropped at send time).

Crash semantics: ``crash(node_id)`` marks a node down without
unregistering it. Sends from or to a down node are dropped, and
messages already in flight *toward* the node are dropped at delivery
time (the crash loses them). Messages the node sent before crashing
are already on the wire and still deliver — fail-stop at message
boundaries. ``recover(node_id)`` brings the node back; state re-sync
is the protocol layer's job (see ``repro.faults``).

When a tracer is attached (``Network.tracer``, set via the
``repro.obs`` layer), every delivered message additionally emits a
``net/hop`` span covering its time in flight. Tracing draws no
randomness and schedules nothing, so traced and untraced runs are
identical (see the event-loop contract in ``repro.sim.core``).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Set, Tuple

from repro.net.latency import LatencyModel, LinkFaults
from repro.net.message import Message
from repro.sim.core import Simulator

DeliveryHandler = Callable[[Message], None]

# Message-body keys that carry a transaction identifier, in priority
# order. Used to correlate net/hop spans with transaction traces.
_TXN_ID_KEYS = ("txn_id", "proposal_id", "transaction_id")


def _txn_id_of(message: Message) -> Optional[str]:
    """Best-effort transaction id carried by a message body."""
    body = message.body
    if isinstance(body, dict):
        for key in _TXN_ID_KEYS:
            value = body.get(key)
            if isinstance(value, str):
                return value
    return None


class Network:
    """Message fabric with WAN latency and Byzantine-era link faults."""

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        latency: Optional[LatencyModel] = None,
        faults: Optional[LinkFaults] = None,
    ) -> None:
        self._sim = sim
        self._rng = rng
        self.latency = latency or LatencyModel()
        self.faults = faults or LinkFaults()
        self._handlers: Dict[str, DeliveryHandler] = {}
        self._partitions: list[Set[str]] = []
        # Crashed (fail-stop) nodes; see the module docstring.
        self._down: Set[str] = set()
        self.delivered_count = 0
        # Drop accounting by cause, for resilience diagnostics: which
        # failure mode is eating messages. Keys: ``unregistered``,
        # ``down``, ``partition``, ``loss``, ``delivery_down``,
        # ``delivery_partition``.
        self.drops_by_reason: Dict[str, int] = {}
        # Per-message-type traffic accounting (counts and modeled wire
        # bytes), tallied at send time before any drop decision — the
        # anti-entropy scaling benchmark reads digest bytes from here
        # (docs/PERFORMANCE.md).
        self.sent_by_type: Dict[str, int] = {}
        self.bytes_by_type: Dict[str, int] = {}
        # Messages scheduled for delivery but not yet delivered; sampled
        # by the observability layer as the ``net/in_flight`` gauge.
        self.in_flight = 0
        # Optional repro.obs recorder; when set, delivered messages emit
        # ``net/hop`` spans. Purely passive — see module docstring.
        self.tracer = None
        # Optional delivery-jitter hook (schedule exploration, see
        # ``repro.sim.nondeterminism``): maps a modeled delay to a
        # jittered one, drawing from its own dedicated stream — never
        # from this network's ``rng`` — so installing it reorders
        # deliveries without shifting any protocol draw.
        self.delivery_jitter: Optional[Callable[[float], float]] = None

    @property
    def sent_count(self) -> int:
        return sum(self.sent_by_type.values())

    @property
    def dropped_count(self) -> int:
        return sum(self.drops_by_reason.values())

    # -- membership -----------------------------------------------------

    def register(self, node_id: str, handler: DeliveryHandler) -> None:
        if node_id in self._handlers:
            raise ValueError(f"node {node_id!r} already registered")
        self._handlers[node_id] = handler

    def is_registered(self, node_id: str) -> bool:
        return node_id in self._handlers

    # -- partitions and crashes -------------------------------------------

    def partition(self, *groups: Set[str]) -> None:
        """Split the network: traffic only flows within a group.

        Nodes absent from every group are unconstrained. Messages
        already in flight across the new cut are dropped at delivery
        time.
        """
        self._partitions = [set(group) for group in groups]

    def heal_partition(self) -> None:
        self._partitions = []

    def crash(self, node_id: str) -> None:
        """Mark a node fail-stop down; its in-flight inbox is lost."""
        self._down.add(node_id)

    def recover(self, node_id: str) -> None:
        """Bring a crashed node back (handler registration is kept)."""
        self._down.discard(node_id)

    def is_down(self, node_id: str) -> bool:
        return node_id in self._down

    def _connected(self, sender: str, recipient: str) -> bool:
        if not self._partitions:
            return True
        sender_group = recipient_group = -1
        for index, group in enumerate(self._partitions):
            if sender in group:
                sender_group = index
            if recipient in group:
                recipient_group = index
        if sender_group < 0 or recipient_group < 0:
            return True  # unlisted nodes are unconstrained
        return sender_group == recipient_group

    # -- sending -----------------------------------------------------------

    def _drop(self, reason: str) -> None:
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1

    def send(self, message: Message) -> None:
        """Send asynchronously; delivery (if any) happens later."""
        msg_type = message.msg_type
        self.sent_by_type[msg_type] = self.sent_by_type.get(msg_type, 0) + 1
        self.bytes_by_type[msg_type] = (
            self.bytes_by_type.get(msg_type, 0) + message.size_bytes
        )
        if message.recipient not in self._handlers:
            self._drop("unregistered")
            return
        if message.sender in self._down or message.recipient in self._down:
            self._drop("down")
            return
        if not self._connected(message.sender, message.recipient):
            self._drop("partition")
            return
        if self.faults.loss_probability and self._rng.random() < self.faults.loss_probability:
            self._drop("loss")
            return
        if self.faults.corrupt_probability and self._rng.random() < self.faults.corrupt_probability:
            message.corrupted = True
        self._deliver_after_delay(message)
        if (
            self.faults.duplicate_probability
            and self._rng.random() < self.faults.duplicate_probability
        ):
            self._deliver_after_delay(message.clone())

    def _deliver_after_delay(self, message: Message) -> None:
        delay = self.latency.delay_for(message.size_bytes, self._rng)
        if self.delivery_jitter is not None:
            delay = self.delivery_jitter(delay)
        self.in_flight += 1
        self._sim.schedule(
            delay, self._deliver, (message, self._handlers[message.recipient], self._sim.now)
        )

    def _deliver(self, delivery: Tuple[Message, DeliveryHandler, float]) -> None:
        message, handler, sent_at = delivery
        self.in_flight -= 1
        # Re-check the world at delivery time: a crash loses the
        # recipient's in-flight inbox, and a partition installed
        # while this message was on the wire cuts the link.
        if message.recipient in self._down:
            self._drop("delivery_down")
            return
        if not self._connected(message.sender, message.recipient):
            self._drop("delivery_partition")
            return
        self.delivered_count += 1
        if self.tracer is not None:
            self.tracer.span(
                "net/hop",
                sent_at,
                self._sim.now,
                node=message.recipient,
                txn_id=_txn_id_of(message),
                attrs={"type": message.msg_type, "sender": message.sender},
            )
        handler(message)


__all__ = ["Network", "DeliveryHandler"]
