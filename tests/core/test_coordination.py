"""Tests for the sealing coordination extension (Discussion, Section 9)."""

import pytest

from repro.core import OrderlessChainNetwork, OrderlessChainSettings
from repro.core.coordination import SealingProtocol, install_sealing
from repro.contracts import AuctionContract, VotingContract


def build(num_orgs=4, quorum=2, seed=13):
    settings = OrderlessChainSettings(num_orgs=num_orgs, quorum=quorum, seed=seed)
    net = OrderlessChainNetwork(settings)
    net.install_contract(AuctionContract)
    protocols = install_sealing(net)
    return net, protocols


def bid(net, client, auction="a0", amount=10):
    return net.sim.process(
        client.submit_modify("auction", "bid", {"auction": auction, "amount": amount})
    )


def test_install_returns_protocol_per_org():
    net, protocols = build()
    assert set(protocols) == set(net.node_ids)
    assert all(isinstance(p, SealingProtocol) for p in protocols.values())


def test_seal_agrees_on_final_set_everywhere():
    net, protocols = build()
    alice = net.add_client("alice")
    bob = net.add_client("bob")

    def scenario():
        yield bid(net, alice, amount=10)
        yield bid(net, bob, amount=20)
        final = yield net.sim.process(protocols["org0"].seal("auction/a0"))
        return final

    process = net.sim.process(scenario())
    net.run(until=60.0)
    assert process.value == {"alice:1", "bob:1"}
    for protocol in protocols.values():
        assert protocol.is_sealed("auction/a0")
        assert protocol.sealed["auction/a0"] == {"alice:1", "bob:1"}


def test_seal_catches_up_organizations_missing_transactions():
    # With EP {2 of 4}, a just-committed bid lives at only 2 orgs; the
    # seal must still produce the same final set at all 4, shipping the
    # missing payloads along.
    net, protocols = build()
    alice = net.add_client("alice")

    def scenario():
        yield bid(net, alice, amount=10)
        # Seal immediately: gossip has not run yet (1 s interval).
        final = yield net.sim.process(protocols["org0"].seal("auction/a0"))
        return final

    process = net.sim.process(scenario())
    net.run(until=60.0)
    assert process.value == {"alice:1"}
    assert net.committed_everywhere("alice:1") == 4
    assert net.converged()


def test_bids_after_seal_are_rejected():
    net, protocols = build()
    alice = net.add_client("alice")
    late = net.add_client("late")

    def scenario():
        yield bid(net, alice, amount=10)
        yield net.sim.process(protocols["org0"].seal("auction/a0"))
        result = yield bid(net, late, amount=99)
        return result

    process = net.sim.process(scenario())
    net.run(until=60.0)
    assert process.value is False
    assert net.recorder.records["late:1"].failure_reason == "rejected"
    # The late bid is not in any replica's state.
    for org in net.organizations:
        book = org.read_state("auction/a0") or {}
        assert "late" not in book


def test_other_objects_stay_coordination_free_after_a_seal():
    net, protocols = build()
    alice = net.add_client("alice")

    def scenario():
        yield bid(net, alice, auction="a0", amount=5)
        yield net.sim.process(protocols["org0"].seal("auction/a0"))
        # A different auction is unaffected by the seal.
        result = yield bid(net, alice, auction="a1", amount=7)
        return result

    process = net.sim.process(scenario())
    net.run(until=60.0)
    assert process.value is True


def test_seal_aborts_on_partition_and_unfreezes():
    # Coordination needs all n organizations; with one unreachable the
    # seal aborts, and the coordination-free path keeps working.
    net, protocols = build()
    alice = net.add_client("alice")
    reachable = set(net.node_ids[:3]) | {"alice"}
    isolated = {net.node_ids[3]}

    def scenario():
        yield bid(net, alice, amount=5)
        net.network.partition(reachable, isolated)
        final = yield net.sim.process(protocols["org0"].seal("auction/a0"))
        net.network.heal_partition()
        # The abort unfroze the object: new bids commit again.
        committed = yield bid(net, alice, amount=3)
        return final, committed

    process = net.sim.process(scenario())
    net.run(until=90.0)
    final, committed = process.value
    assert final is None  # the seal aborted
    assert committed is True
    assert not protocols["org0"].is_sealed("auction/a0")


def test_sealed_election_rejects_late_votes():
    # The paper's motivating case: an election deadline.
    settings = OrderlessChainSettings(num_orgs=4, quorum=2, seed=17)
    net = OrderlessChainNetwork(settings)
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    protocols = install_sealing(net)
    early, late = net.add_client("early"), net.add_client("late")

    def scenario():
        yield net.sim.process(
            early.submit_modify("voting", "vote", {"party": "party0", "election": "e0"})
        )
        # Close the election: seal every party object.
        for party in ("party0", "party1"):
            yield net.sim.process(protocols["org0"].seal(f"voting/e0/{party}"))
        result = yield net.sim.process(
            late.submit_modify("voting", "vote", {"party": "party1", "election": "e0"})
        )
        return result

    process = net.sim.process(scenario())
    net.run(until=90.0)
    assert process.value is False
    org = net.organizations[0]
    assert org.read_state("voting/e0/party0") == {"early": True}
    assert "late" not in (org.read_state("voting/e0/party1") or {})


def test_seal_of_untouched_object_yields_empty_set():
    net, protocols = build(seed=21)
    process = net.sim.process(protocols["org0"].seal("auction/never-used"))
    net.run(until=30.0)
    assert process.value == set()
    for protocol in protocols.values():
        assert protocol.is_sealed("auction/never-used")


def test_seal_can_be_coordinated_by_any_org():
    net, protocols = build(seed=22)
    alice = net.add_client("alice")

    def scenario():
        yield bid(net, alice, amount=4)
        final = yield net.sim.process(protocols["org3"].seal("auction/a0"))
        return final

    process = net.sim.process(scenario())
    net.run(until=60.0)
    assert process.value == {"alice:1"}
    assert all(p.is_sealed("auction/a0") for p in protocols.values())


def test_commits_racing_the_freeze_do_not_break_agreement():
    # Bids submitted while the seal is in flight either make the final
    # set (accepted before the local freeze) or are rejected — but all
    # organizations agree on the same final set either way.
    net, protocols = build(seed=23)
    clients = [net.add_client(f"c{i}") for i in range(4)]

    def racer(client, delay):
        yield net.sim.timeout(delay)
        yield net.sim.process(
            client.submit_modify("auction", "bid", {"auction": "a0", "amount": 2})
        )

    for index, client in enumerate(clients):
        net.sim.process(racer(client, 0.05 * index))

    def sealer():
        yield net.sim.timeout(0.2)  # mid-flight
        return (yield net.sim.process(protocols["org0"].seal("auction/a0")))

    process = net.sim.process(sealer())
    net.run(until=90.0)
    final = process.value
    assert final is not None
    sealed_sets = {frozenset(p.sealed["auction/a0"]) for p in protocols.values()}
    assert sealed_sets == {frozenset(final)}
    # The final books are identical everywhere.
    books = [str(org.read_state("auction/a0")) for org in net.organizations]
    assert len(set(books)) == 1
