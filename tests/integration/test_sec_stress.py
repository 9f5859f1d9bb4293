"""Strong-eventual-consistency stress tests (Theorem 8.2).

Many clients, adversarial network conditions (loss, duplication,
a transient partition), mixed applications — after the dust settles,
every organization must hold the same state, every hash chain must
verify, and every successfully committed transaction must be present
everywhere.
"""

import pytest

from repro.bench.config import ExperimentConfig
from repro.core import OrderlessChainNetwork
from repro.contracts import AuctionContract, VotingContract
from repro.net.latency import LinkFaults


def build(contract_factory, seed, faults=None, num_orgs=5, quorum=2):
    config = ExperimentConfig(
        num_orgs=num_orgs,
        quorum=quorum,
        seed=seed,
        gossip_interval=0.5,
        sync_interval=2.0,
        # Every client of these runs retries.
        max_retries=4,
        scale=1,
    )
    net = OrderlessChainNetwork(config)
    if faults is not None:
        net.network.faults = faults
    net.install_contract(contract_factory)
    return net


def drive_bids(net, clients, bids_per_client, rng):
    for client in clients:
        def behaviour(client=client):
            for _ in range(bids_per_client):
                yield net.sim.timeout(rng.uniform(0.1, 3.0))
                yield net.sim.process(
                    client.submit_modify(
                        "auction",
                        "bid",
                        {"auction": rng.choice(["a0", "a1"]), "amount": rng.randint(1, 9)},
                    )
                )
        net.sim.process(behaviour())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_convergence_under_loss_and_duplication(seed):
    net = build(
        AuctionContract,
        seed=seed,
        faults=LinkFaults(loss_probability=0.05, duplicate_probability=0.1),
    )
    clients = [net.add_client(f"c{i}") for i in range(8)]
    drive_bids(net, clients, bids_per_client=3, rng=net.rng.stream("drive"))
    net.run(until=120.0)
    assert net.converged()
    net.verify_all_ledgers()
    # Every client-confirmed commit reached every organization.
    for record in net.recorder.successes():
        assert net.committed_everywhere(record.transaction_id) == len(net.organizations)


def test_convergence_across_transient_partition():
    net = build(AuctionContract, seed=9)
    clients = [net.add_client(f"c{i}") for i in range(6)]
    drive_bids(net, clients, bids_per_client=2, rng=net.rng.stream("drive"))
    majority = set(net.node_ids[:3]) | {c.client_id for c in clients[:3]}
    minority = set(net.node_ids[3:]) | {c.client_id for c in clients[3:]}

    def chaos():
        yield net.sim.timeout(2.0)
        net.network.partition(majority, minority)
        yield net.sim.timeout(8.0)
        net.network.heal_partition()

    net.sim.process(chaos())
    net.run(until=120.0)
    assert net.converged()
    net.verify_all_ledgers()


def test_sum_of_bids_equals_committed_amounts():
    # A semantic conservation check on top of convergence: the final
    # G-Counter totals equal the sum of the amounts of committed bids.
    net = build(AuctionContract, seed=5)
    clients = [net.add_client(f"c{i}") for i in range(5)]
    amounts = {}

    def behaviour(client, amount):
        committed = yield net.sim.process(
            client.submit_modify("auction", "bid", {"auction": "a0", "amount": amount})
        )
        amounts[client.client_id] = amount if committed else 0

    for index, client in enumerate(clients):
        net.sim.process(behaviour(client, (index + 1) * 3))
    net.run(until=60.0)
    book = net.organizations[0].read_state("auction/a0") or {}
    assert sum(book.values()) == sum(amounts.values())
    assert net.converged()


def test_mixed_voting_load_respects_invariant_everywhere():
    net = build(lambda: VotingContract(parties_per_election=3), seed=6)
    voters = [net.add_client(f"v{i}") for i in range(10)]
    rng = net.rng.stream("votes")

    def behaviour(voter):
        # Vote, and with some probability re-vote.
        yield net.sim.process(
            voter.submit_modify(
                "voting", "vote", {"party": f"party{rng.randint(0, 2)}", "election": "e"}
            )
        )
        if rng.random() < 0.5:
            yield net.sim.timeout(rng.uniform(0.5, 3.0))
            yield net.sim.process(
                voter.submit_modify(
                    "voting", "vote", {"party": f"party{rng.randint(0, 2)}", "election": "e"}
                )
            )

    for voter in voters:
        net.sim.process(behaviour(voter))
    net.run(until=90.0)
    assert net.converged()
    for org in net.organizations:
        counted = 0
        for party in range(3):
            party_map = org.read_state(f"voting/e/party{party}") or {}
            counted += sum(1 for value in party_map.values() if value is True)
        # Maximally one counted vote per voter, on every organization.
        assert counted <= len(voters)
