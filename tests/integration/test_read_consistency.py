"""Read-semantics tests.

Section 6: reads at organization O_i reflect only the modifications
applied at O_i (the system is SEC, replicas may transiently diverge),
and the cache gives read-your-writes consistency from the client's
point of view once the commit receipts are in hand.
"""

import pytest

from repro.bench.config import ExperimentConfig
from repro.core import OrderlessChainNetwork
from repro.contracts import AuctionContract


def build(seed=12, **kwargs):
    config = ExperimentConfig(num_orgs=4, quorum=2, seed=seed, scale=1, **kwargs)
    net = OrderlessChainNetwork(config)
    net.install_contract(AuctionContract)
    return net


def test_read_your_writes_at_committing_orgs():
    # Immediately after the q receipts arrive, the committing
    # organizations serve the write back — before gossip has run.
    net = build(gossip_interval=1000.0, sync_interval=0.0)
    client = net.add_client("alice")

    def scenario():
        committed = yield net.sim.process(
            client.submit_modify("auction", "bid", {"auction": "a", "amount": 7})
        )
        assert committed
        committers = [
            org.org_id for org in net.organizations if org.ledger.is_valid_transaction("alice:1")
        ]
        values = [net.node(org_id).read_state("auction/a", ("alice",)) for org_id in committers]
        return committers, values

    process = net.sim.process(scenario())
    net.run(until=20.0)
    committers, values = process.value
    assert len(committers) == 2
    assert values == [7, 7]


def test_reads_at_lagging_orgs_reflect_local_state_only():
    # SEC: before dissemination, the other organizations legitimately
    # serve the old (empty) state.
    net = build(gossip_interval=1000.0, sync_interval=0.0)
    client = net.add_client("alice")

    def scenario():
        yield net.sim.process(
            client.submit_modify("auction", "bid", {"auction": "a", "amount": 7})
        )
        lagging = [
            org for org in net.organizations if not org.ledger.is_valid_transaction("alice:1")
        ]
        return [org.read_state("auction/a") for org in lagging]

    process = net.sim.process(scenario())
    net.run(until=20.0)
    assert process.value == [None, None]


def test_reads_eventually_consistent_after_dissemination():
    net = build()
    client = net.add_client("alice")

    def scenario():
        yield net.sim.process(
            client.submit_modify("auction", "bid", {"auction": "a", "amount": 7})
        )
        yield net.sim.timeout(10.0)  # gossip + anti-entropy settle
        return [org.read_state("auction/a", ("alice",)) for org in net.organizations]

    process = net.sim.process(scenario())
    net.run(until=30.0)
    assert process.value == [7, 7, 7, 7]


def test_cache_and_replay_reads_agree_end_to_end():
    # The cache is an optimization, not a semantics change: a cached
    # network and a cache-disabled network answer reads identically.
    outcomes = []
    for cache_enabled in (True, False):
        net = build(cache_enabled=cache_enabled)
        client = net.add_client("alice")

        def scenario(net=net, client=client):
            yield net.sim.process(
                client.submit_modify("auction", "bid", {"auction": "a", "amount": 3})
            )
            yield net.sim.timeout(8.0)
            values = yield net.sim.process(
                client.submit_read("auction", "get_highest_bid", {"auction": "a"})
            )
            return values

        process = net.sim.process(scenario())
        net.run(until=40.0)
        outcomes.append(process.value)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == {"bidder": "alice", "amount": 3}
