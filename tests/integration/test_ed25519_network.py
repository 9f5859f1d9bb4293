"""End-to-end run with real Ed25519 signatures.

The default simulation uses the fast keyed-digest scheme; this test
runs the full two-phase protocol with genuine asymmetric crypto to
prove the two schemes are drop-in interchangeable.
"""

import pytest

from repro.bench.config import ExperimentConfig
from repro.core import OrderlessChainNetwork
from repro.contracts import VotingContract

pytest.importorskip("cryptography")


def test_vote_commits_with_real_signatures():
    config = ExperimentConfig(
        num_orgs=4, quorum=2, seed=2, signature_scheme="ed25519", scale=1
    )
    net = OrderlessChainNetwork(config)
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    voter = net.add_client("alice")
    process = net.sim.process(
        voter.submit_modify("voting", "vote", {"party": "party0", "election": "e"})
    )
    net.run(until=30.0)
    assert process.value is True
    assert net.committed_everywhere("alice:1") == 4
    assert net.converged()
    net.verify_all_ledgers()


def test_tampering_detected_under_ed25519():
    from repro.core import ByzantineClientConfig

    config = ExperimentConfig(
        num_orgs=4, quorum=2, seed=3, signature_scheme="ed25519", scale=1
    )
    net = OrderlessChainNetwork(config)
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    forger = net.add_client(
        "forger", byzantine=ByzantineClientConfig(faults=frozenset({"tamper"}))
    )
    process = net.sim.process(
        forger.submit_modify("voting", "vote", {"party": "party0", "election": "e"})
    )
    net.run(until=30.0)
    assert process.value is False
    assert net.committed_everywhere("forger:1") == 0
