"""The auction application (Section 5).

Each auction is a CRDT Map keyed by bidder identifier whose values are
G-Counters holding the bidder's cumulative bid (Figure 2(b)). A bid
adds a positive amount to the bidder's counter; since G-Counters only
grow, the *increase-only bids* invariant is I-confluent and preserved
without coordination.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.contract import (
    ContractContext,
    SmartContract,
    modify_function,
    read_function,
)
from repro.errors import ContractError


def auction_object_id(auction: str) -> str:
    return f"auction/{auction}"


class AuctionContract(SmartContract):
    """Smart contract with ``Bid`` and ``GetHighestBid`` functions."""

    contract_id = "auction"

    @modify_function
    def bid(self, ctx: ContractContext, auction: str, amount: float) -> None:
        """Increase the calling bidder's cumulative bid by ``amount``."""
        if not isinstance(amount, (int, float)) or isinstance(amount, bool) or amount <= 0:
            raise ContractError(f"bid increase must be positive, got {amount!r}")
        ctx.add_value(auction_object_id(auction), amount, path=(ctx.client_id,))

    @read_function
    def get_highest_bid(
        self, ctx: ContractContext, auction: str
    ) -> Optional[Dict[str, Any]]:
        """The current highest cumulative bid and its bidder."""
        auction_map = ctx.state.read(auction_object_id(auction))
        if not isinstance(auction_map, dict) or not auction_map:
            return None
        best_bidder, best_amount = None, float("-inf")
        for bidder, amount in sorted(auction_map.items()):
            if isinstance(amount, (int, float)) and amount > best_amount:
                best_bidder, best_amount = bidder, amount
        if best_bidder is None:
            return None
        return {"bidder": best_bidder, "amount": best_amount}

    @read_function
    def get_bid(self, ctx: ContractContext, auction: str, bidder: str) -> Any:
        """One bidder's cumulative bid."""
        return ctx.state.read(auction_object_id(auction), (bidder,))


__all__ = ["AuctionContract", "auction_object_id"]
