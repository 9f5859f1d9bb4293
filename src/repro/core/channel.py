"""Per-channel sharded state (multi-application deployments).

A *channel* binds one smart contract to its own ledger (hash-chain
log, committed set, CRDT value cache) and watermark digest, so a single
``OrderlessChainNetwork`` can serve several independent applications
concurrently. Coordination-freedom makes this sharding trivial:
transactions from different applications never need a global order
(Section 3), so channels share only the WAN and the crypto caches.

Every organization owns one :class:`ChannelState` per channel. The
``default`` channel every organization starts with is an ordinary
channel — keyed, gossiped, digested, and snapshotted like any other —
except that contracts installed on it keep their bare ids and
``org.ledger`` is a read-only shorthand for its ledger. Channels add no
shared RNG draw or event: a second channel brings only its own traffic.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.antientropy import WatermarkDigest
from repro.ledger.ledger import Ledger

#: The channel every organization starts with; contracts installed
#: here keep their bare contract ids.
DEFAULT_CHANNEL = "default"


def scoped_contract_id(channel_id: str, contract_id: str) -> str:
    """The network-wide unique contract id for a channel-bound contract.

    Contract ids are the routing key of the whole protocol (proposals,
    commits, and reads all carry one), so two channels running the same
    application must expose distinct ids. Contracts on the default
    channel keep their bare id — existing clients and golden seeds see
    no change — while a contract installed on channel ``alpha`` is
    addressed as ``alpha:voting``.
    """
    if channel_id == DEFAULT_CHANNEL or contract_id.startswith(f"{channel_id}:"):
        return contract_id
    return f"{channel_id}:{contract_id}"


class ChannelState:
    """One channel's shard of an organization's state.

    Holds everything the commit/gossip/anti-entropy hot path touches
    per channel: the ledger (hash-chain log + committed set + CRDT
    value cache), the gossip backlog, the incrementally maintained
    :class:`WatermarkDigest` of the committed ids, and the recovery
    snapshot — the committed count at the last checkpoint.
    """

    __slots__ = (
        "channel_id",
        "ledger",
        "gossip_backlog",
        "watermarks",
        "snapshot",
        "committed_invalid",
        "gossip_commits",
    )

    def __init__(self, channel_id: str) -> None:
        self.channel_id = channel_id
        self.ledger = Ledger()
        # (transaction wire, remaining push rounds) pairs; see
        # Organization._gossip_loop.
        self.gossip_backlog: List[tuple[Dict[str, Any], int]] = []
        self.watermarks = WatermarkDigest()
        self.snapshot: Optional[int] = None
        # Per-channel commit counters (the org-level totals aggregate
        # across channels; valid commits are the ledger's own count).
        # An invalid-logged transaction may later commit as valid, so
        # the invalid count is not derivable from the ledger.
        self.committed_invalid = 0
        self.gossip_commits = 0


__all__ = ["ChannelState", "DEFAULT_CHANNEL", "scoped_contract_id"]
