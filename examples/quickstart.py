"""Quickstart: a four-organization OrderlessChain network.

Builds a network with endorsement policy {2 of 4}, installs the voting
smart contract, submits one vote through the two-phase execute-commit
protocol, and shows that gossip converges all four replicas.

Run:  python examples/quickstart.py
"""

from repro import OrderlessChainNetwork
from repro.bench.config import ExperimentConfig
from repro.contracts import VotingContract


def main() -> None:
    # 1. Build a permissioned network: 4 organizations, EP {2 of 4}.
    config = ExperimentConfig(num_orgs=4, quorum=2, seed=42, scale=1)
    net = OrderlessChainNetwork(config)
    print(f"network: {config.num_orgs} organizations, endorsement policy {net.policy}")
    print(f"  safety tolerates  f <= {net.policy.safety_tolerance} Byzantine orgs")
    print(f"  liveness tolerates f <= {net.policy.liveness_tolerance} Byzantine orgs")

    # 2. Install the voting smart contract on every organization.
    net.install_contract(lambda: VotingContract(parties_per_election=2))

    # 3. A client votes: phase 1 collects endorsements from 2 orgs,
    #    phase 2 commits the signed transaction at 2 orgs.
    alice = net.add_client("alice")
    vote = net.sim.process(
        alice.submit_modify("voting", "vote", {"party": "party0", "election": "mayor-2026"})
    )

    # 4. Run the simulation; gossip then spreads the transaction to the
    #    organizations the client never contacted.
    net.run(until=30.0)

    print(f"\nvote committed: {vote.value}")
    print(f"organizations holding the transaction: {net.committed_everywhere('alice:1')} of 4")
    print(f"replicas converged: {net.converged()}")
    for org in net.organizations:
        tally = org.read_state("voting/mayor-2026/party0")
        print(f"  {org.org_id}: party0 register map = {tally}")

    # 5. Every ledger's hash chain verifies end to end.
    net.verify_all_ledgers()
    print("\nall hash-chain logs verified")

    latency = net.recorder.latencies("modify")[0]
    print(f"transaction latency: {latency * 1000:.0f} ms (simulated WAN)")


if __name__ == "__main__":
    main()
