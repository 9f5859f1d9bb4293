"""Integration tests: the two-phase protocol on a full network."""

import pytest

from repro.core import OrderlessChainNetwork, OrderlessChainSettings
from repro.core.client import ClientConfig
from repro.contracts import AuctionContract, VotingContract
from repro.errors import ConfigError
from repro.net.latency import LinkFaults


def build(num_orgs=4, quorum=2, seed=1, **kwargs):
    settings = OrderlessChainSettings(num_orgs=num_orgs, quorum=quorum, seed=seed, **kwargs)
    net = OrderlessChainNetwork(settings)
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    return net


def test_settings_validation():
    with pytest.raises(ConfigError):
        OrderlessChainSettings(num_orgs=0)
    with pytest.raises(ConfigError):
        OrderlessChainSettings(num_orgs=4, quorum=5)


def test_successful_vote_commits_at_quorum_then_gossips_everywhere():
    net = build()
    voter = net.add_client("voter0")
    process = net.sim.process(
        voter.submit_modify("voting", "vote", {"party": "party0", "election": "e0"})
    )
    net.run(until=30.0)
    assert process.value is True
    assert net.recorder.records["voter0:1"].succeeded
    # Gossip (step 5) spreads the transaction to every organization.
    assert net.committed_everywhere("voter0:1") == 4
    assert net.converged()
    for org in net.organizations:
        assert org.read_state("voting/e0/party0") == {"voter0": True}


def test_ledgers_verify_after_run():
    net = build()
    voter = net.add_client("voter0")
    net.sim.process(voter.submit_modify("voting", "vote", {"party": "party1", "election": "e0"}))
    net.run(until=30.0)
    net.verify_all_ledgers()


def test_revote_counts_only_once():
    # Section 7: the maximally-one-vote-per-voter invariant. The second
    # vote happens-after the first and overwrites it on every party.
    net = build()
    voter = net.add_client("voter0")

    def two_votes():
        yield net.sim.process(
            voter.submit_modify("voting", "vote", {"party": "party0", "election": "e0"})
        )
        yield net.sim.process(
            voter.submit_modify("voting", "vote", {"party": "party1", "election": "e0"})
        )

    net.sim.process(two_votes())
    net.run(until=40.0)
    for org in net.organizations:
        assert org.read_state("voting/e0/party0", ("voter0",)) is False
        assert org.read_state("voting/e0/party1", ("voter0",)) is True
    assert net.converged()


def test_concurrent_voters_all_commit():
    net = build()
    voters = [net.add_client(f"voter{i}") for i in range(6)]
    for index, voter in enumerate(voters):
        party = f"party{index % 2}"
        net.sim.process(voter.submit_modify("voting", "vote", {"party": party, "election": "e0"}))
    net.run(until=40.0)
    assert len(net.recorder.successes()) == len(voters)
    assert net.converged()
    party0 = net.organizations[0].read_state("voting/e0/party0")
    assert sum(1 for value in party0.values() if value is True) == 3


def test_read_returns_quorum_responses():
    net = build()
    voter = net.add_client("voter0")
    reader = net.add_client("reader0")

    def scenario():
        yield net.sim.process(
            voter.submit_modify("voting", "vote", {"party": "party0", "election": "e0"})
        )
        # Let gossip settle so any quorum sees the vote.
        yield net.sim.timeout(5.0)
        values = yield net.sim.process(
            reader.submit_read("voting", "read_vote_count", {"party": "party0", "election": "e0"})
        )
        return values

    process = net.sim.process(scenario())
    net.run(until=40.0)
    assert process.value == [1, 1]


def test_duplicate_submission_is_not_double_committed():
    net = build()
    voter = net.add_client("voter0")

    def scenario():
        yield net.sim.process(
            voter.submit_modify("voting", "vote", {"party": "party0", "election": "e0"})
        )

    net.sim.process(scenario())
    net.run(until=30.0)
    for org in net.organizations:
        if org.ledger.has_transaction("voter0:1"):
            assert org.ledger.valid_transaction_count == 1


def test_lossy_network_with_retries_still_commits():
    net = build(faults=LinkFaults(loss_probability=0.15))
    voter = net.add_client("voter0", config=ClientConfig(max_retries=5, proposal_timeout=1.5))
    process = net.sim.process(
        voter.submit_modify("voting", "vote", {"party": "party0", "election": "e0"})
    )
    net.run(until=60.0)
    assert process.value is True


def test_duplicating_network_converges():
    net = build(faults=LinkFaults(duplicate_probability=0.5))
    voter = net.add_client("voter0")
    process = net.sim.process(
        voter.submit_modify("voting", "vote", {"party": "party0", "election": "e0"})
    )
    net.run(until=30.0)
    assert process.value is True
    assert net.converged()
    net.verify_all_ledgers()


def test_auction_increase_only_bids():
    settings = OrderlessChainSettings(num_orgs=4, quorum=2, seed=2)
    net = OrderlessChainNetwork(settings)
    net.install_contract(AuctionContract)
    bidder = net.add_client("bidder0")

    def scenario():
        yield net.sim.process(bidder.submit_modify("auction", "bid", {"auction": "a1", "amount": 10}))
        yield net.sim.process(bidder.submit_modify("auction", "bid", {"auction": "a1", "amount": 5}))
        yield net.sim.timeout(5.0)
        value = yield net.sim.process(bidder.submit_read("auction", "get_highest_bid", {"auction": "a1"}))
        return value

    process = net.sim.process(scenario())
    net.run(until=40.0)
    assert process.value[0] == {"bidder": "bidder0", "amount": 15}
    assert net.converged()


def test_partitioned_quorum_stays_available_and_merges():
    # Section 3 / CAP: a partition holding at least q organizations
    # remains available; healing merges the states.
    net = build(num_orgs=4, quorum=2)
    voter = net.add_client(
        "voter0",
        config=ClientConfig(max_retries=8, avoid_byzantine=True, proposal_timeout=1.0),
    )
    majority = set(net.org_ids[:2]) | {"voter0"}
    minority = set(net.org_ids[2:])
    net.network.partition(majority, minority)
    process = net.sim.process(
        voter.submit_modify("voting", "vote", {"party": "party0", "election": "e0"})
    )

    def heal_later():
        yield net.sim.timeout(10.0)
        net.network.heal_partition()

    net.sim.process(heal_later())
    net.run(until=60.0)
    assert process.value is True
    assert net.committed_everywhere("voter0:1") == 4
    assert net.converged()
