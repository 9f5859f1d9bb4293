"""Byzantine endorsers: safety under attack (Section 8).

A network of 4 organizations with EP {2 of 4}: safety tolerates one
Byzantine organization (q >= f+1), liveness tolerates two (n-q >= f).
We make one organization tamper with endorsements and show:

* transactions touching the Byzantine org fail to assemble (the
  endorsed write-sets disagree), so nothing invalid ever commits;
* clients that observe the misbehaviour blacklist the organization and
  succeed on retry (Figure 8(b)'s mechanism);
* a client that tampers with its own transaction is rejected by every
  honest organization, and the rejection is on the ledger.

Run:  python examples/byzantine_endorsers.py
"""

from repro import (
    ByzantineClientConfig,
    ByzantineOrgConfig,
    OrderlessChainNetwork,
)
from repro.bench.config import ExperimentConfig
from repro.contracts import VotingContract


def main() -> None:
    config = ExperimentConfig(num_orgs=4, quorum=2, seed=3, scale=1)
    net = OrderlessChainNetwork(config)
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    print(f"policy {net.policy}: safety f<={net.policy.safety_tolerance}, "
          f"liveness f<={net.policy.liveness_tolerance}")

    # org0 endorses incorrectly for the whole run.
    evil = net.organizations[0]
    evil.byzantine = ByzantineOrgConfig(drop_probability=0.0, wrong_endorsement_probability=1.0)
    evil.byzantine_active = True
    print(f"{evil.org_id} is Byzantine: it tampers with every endorsement\n")

    # A naive client (no retries) and a careful one (avoids + retries).
    naive = net.add_client("naive")
    careful = net.add_client("careful", config=config.with_(max_retries=6, avoid_byzantine=True))
    # And a Byzantine client that tampers with its own write-set.
    forger = net.add_client(
        "forger", byzantine=ByzantineClientConfig(faults=frozenset({"tamper"}))
    )

    outcomes = {}
    for client in (naive, careful, forger):
        outcomes[client.client_id] = net.sim.process(
            client.submit_modify("voting", "vote", {"party": "party0", "election": "e"})
        )
    net.run(until=60.0)

    for name, process in outcomes.items():
        print(f"{name:>8}: committed={process.value}")
    print(f"\ncareful client blacklisted: {sorted(careful.blacklist) or 'nothing'}")

    # Safety check: no tampered transaction is valid anywhere.
    assert net.committed_everywhere("forger:1") == 0
    rejections = sum(org.committed_invalid for org in net.organizations)
    if rejections:
        print(f"forger's transaction committed anywhere: no "
              f"(rejected and logged at {rejections} organization(s))")
    else:
        print("forger's transaction committed anywhere: no "
              "(it already failed to assemble in the endorsement phase)")

    # The careful client always gets through (liveness with f=1).
    assert outcomes["careful"].value is True
    net.verify_all_ledgers()
    print("all honest ledgers verify; the system stayed safe and live")


if __name__ == "__main__":
    main()
