"""Dissemination tests: gossip fanout/TTL and anti-entropy coverage."""

import pytest

from repro.bench.config import ExperimentConfig
from repro.core import OrderlessChainNetwork
from repro.contracts import AuctionContract


def build(num_orgs=8, quorum=2, seed=3, **kwargs):
    config = ExperimentConfig(num_orgs=num_orgs, quorum=quorum, seed=seed, scale=1, **kwargs)
    net = OrderlessChainNetwork(config)
    net.install_contract(AuctionContract)
    return net


def one_bid(net):
    client = net.add_client("bidder")
    return net.sim.process(
        client.submit_modify("auction", "bid", {"auction": "a", "amount": 5})
    )


def test_fanout_one_eventually_reaches_all_orgs():
    net = build(gossip_fanout=1, gossip_ttl=3, sync_interval=5.0)
    process = one_bid(net)
    net.run(until=60.0)
    assert process.value is True
    assert net.committed_everywhere("bidder:1") == 8


def test_high_fanout_disseminates_in_one_round():
    net = build(gossip_fanout=7, gossip_ttl=1, sync_interval=0.0)
    process = one_bid(net)
    # One gossip round (1 s) plus delivery: well within 3 s.
    net.run(until=3.5)
    assert process.value is True
    assert net.committed_everywhere("bidder:1") == 8


def test_antientropy_alone_completes_delivery():
    # Gossip disabled entirely (interval long, ttl minimal): only the
    # digest-exchange repair spreads the transaction.
    net = build(gossip_fanout=1, gossip_ttl=1, gossip_interval=1000.0, sync_interval=2.0)
    process = one_bid(net)
    net.run(until=120.0)
    assert process.value is True
    assert net.committed_everywhere("bidder:1") == 8


def test_gossip_disabled_and_sync_disabled_reaches_only_quorum():
    # Sanity check of the controls: with both channels off, only the
    # q organizations the client contacted hold the transaction.
    net = build(gossip_fanout=1, gossip_ttl=1, gossip_interval=1000.0, sync_interval=0.0)
    process = one_bid(net)
    net.run(until=30.0)
    assert process.value is True
    assert net.committed_everywhere("bidder:1") == 2


def test_gossip_commit_counts_attributed():
    net = build(gossip_fanout=3, seed=5)
    process = one_bid(net)
    net.run(until=30.0)
    assert process.value is True
    direct = sum(org.committed_valid - org.gossip_commits for org in net.organizations)
    via_gossip = sum(org.gossip_commits for org in net.organizations)
    assert direct == 2  # the client's quorum
    assert via_gossip == 6  # everyone else learned by gossip/sync
