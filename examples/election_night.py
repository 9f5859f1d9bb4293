"""Election night: the paper's running voting example at scale.

Four parties, each represented by one organization (EP {4 of 4}: every
party must endorse and commit every vote, so no single party can forge
results). Voters vote, some change their mind — the *maximally one
vote per voter* invariant (Section 7) holds without any coordination.

Run:  python examples/election_night.py
"""

from repro import OrderlessChainNetwork
from repro.bench.config import ExperimentConfig
from repro.contracts import VotingContract

PARTIES = ["party0", "party1", "party2", "party3"]
ELECTION = "general-2026"


def main() -> None:
    # One organization per party; a fair election demands EP {4 of 4}.
    config = ExperimentConfig(num_orgs=4, quorum=4, seed=7, scale=1)
    net = OrderlessChainNetwork(config)
    net.install_contract(lambda: VotingContract(parties_per_election=len(PARTIES)))
    print(f"election with {len(PARTIES)} parties, endorsement policy {net.policy}")

    voters = [net.add_client(f"voter{i:02d}") for i in range(20)]
    rng = net.rng.stream("scenario")

    def voter_behaviour(voter, first_choice, final_choice):
        # Everyone votes once; some later change their vote. Only the
        # final vote may count.
        yield net.sim.process(
            voter.submit_modify("voting", "vote", {"party": first_choice, "election": ELECTION})
        )
        if final_choice != first_choice:
            yield net.sim.timeout(rng.uniform(1.0, 5.0))
            yield net.sim.process(
                voter.submit_modify("voting", "vote", {"party": final_choice, "election": ELECTION})
            )

    final_votes = {}
    for voter in voters:
        first = rng.choice(PARTIES)
        final = rng.choice(PARTIES) if rng.random() < 0.3 else first
        final_votes[voter.client_id] = final
        net.sim.process(voter_behaviour(voter, first, final))

    net.run(until=60.0)

    print(f"\nreplicas converged: {net.converged()}")
    expected = {party: 0 for party in PARTIES}
    for choice in final_votes.values():
        expected[choice] += 1

    print(f"{'party':>8} {'expected':>9} {'on-chain':>9}")
    org = net.organizations[0]
    total_on_chain = 0
    for party in PARTIES:
        party_map = org.read_state(f"voting/{ELECTION}/{party}") or {}
        on_chain = sum(1 for value in party_map.values() if value is True)
        total_on_chain += on_chain
        marker = "" if on_chain == expected[party] else "  <- MISMATCH"
        print(f"{party:>8} {expected[party]:>9} {on_chain:>9}{marker}")

    # The I-confluent invariant: exactly one counted vote per voter.
    assert total_on_chain == len(voters), "invariant violated!"
    print(f"\ninvariant holds: {total_on_chain} counted votes for {len(voters)} voters")


if __name__ == "__main__":
    main()
