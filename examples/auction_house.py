"""Auction house: concurrent bidders on a coordination-free chain.

Bidders race to increase their cumulative bids (G-Counters) on two
auctions. The *increase-only bids* invariant (Section 5) is preserved
by construction: a bid can only add a positive amount to the bidder's
counter, so no ordering is needed — yet every replica agrees on the
winner.

Run:  python examples/auction_house.py
"""

from repro import OrderlessChainNetwork
from repro.bench.config import ExperimentConfig
from repro.contracts import AuctionContract

AUCTIONS = ["rare-book", "old-clock"]


def main() -> None:
    config = ExperimentConfig(num_orgs=8, quorum=4, seed=11, scale=1)
    net = OrderlessChainNetwork(config)
    net.install_contract(AuctionContract)
    print(f"auction house on {config.num_orgs} organizations, policy {net.policy}")

    bidders = [net.add_client(f"bidder{i}") for i in range(6)]
    rng = net.rng.stream("scenario")

    def bidding_war(bidder):
        # Each bidder raises several times at random moments.
        for _ in range(rng.randint(2, 5)):
            yield net.sim.timeout(rng.uniform(0.5, 4.0))
            auction = rng.choice(AUCTIONS)
            raise_by = rng.randint(5, 50)
            committed = yield net.sim.process(
                bidder.submit_modify("auction", "bid", {"auction": auction, "amount": raise_by})
            )
            assert committed, "honest bids must commit"

    for bidder in bidders:
        net.sim.process(bidding_war(bidder))

    # A spectator polls the leading bid while the war is running.
    spectator = net.add_client("spectator")
    observations = []

    def watch():
        for _ in range(4):
            yield net.sim.timeout(5.0)
            values = yield net.sim.process(
                spectator.submit_read("auction", "get_highest_bid", {"auction": AUCTIONS[0]})
            )
            if values:
                observations.append((net.sim.now, values[0]))

    net.sim.process(watch())
    net.run(until=60.0)

    print("\nspectator's view of the leading bid over time:")
    for when, leader in observations:
        print(f"  t={when:5.1f}s  {leader}")

    print(f"\nreplicas converged: {net.converged()}")
    org = net.organizations[0]
    for auction in AUCTIONS:
        book = org.read_state(f"auction/{auction}") or {}
        print(f"\nfinal book for {auction}:")
        for bidder_id in sorted(book):
            print(f"  {bidder_id:>10}: {book[bidder_id]}")
        if book:
            winner = max(sorted(book), key=lambda b: book[b])
            print(f"  winner: {winner} at {book[winner]}")


if __name__ == "__main__":
    main()
