"""Empirical sweep of Theorem 8.1's safety and liveness conditions.

For an endorsement policy {q of n} with f Byzantine organizations:
safety holds iff q >= f+1, liveness holds iff n-q >= f. We sweep (q, f)
over a 4-organization network and check both properties against the
theorem's prediction.
"""

import pytest

from repro.bench.config import ExperimentConfig
from repro.core import (
    ByzantineOrgConfig,
    OrderlessChainNetwork,
)
from repro.contracts import AuctionContract

N = 4


def run_with_byzantine(quorum: int, faulty: int, collude: bool, seed: int = 1):
    """One honest client's bid against f Byzantine organizations.

    ``collude=True`` turns the Byzantine orgs into colluders who will
    happily endorse a forged transaction built by a Byzantine client —
    the attack scenario safety must resist.
    """
    config = ExperimentConfig(num_orgs=N, quorum=quorum, seed=seed, scale=1)
    net = OrderlessChainNetwork(config)
    net.install_contract(AuctionContract)
    byzantine = net.organizations[:faulty]
    for org in byzantine:
        org.byzantine = ByzantineOrgConfig(
            drop_probability=1.0 if not collude else 0.0,
            wrong_endorsement_probability=0.0 if not collude else 1.0,
            suppress_gossip_probability=1.0,
        )
        org.byzantine_active = True
    client = net.add_client(
        "honest",
        config=config.with_(max_retries=6, avoid_byzantine=True),
    )
    process = net.sim.process(
        client.submit_modify("auction", "bid", {"auction": "a", "amount": 10})
    )
    net.run(until=90.0)
    return net, process


class TestLiveness:
    """Liveness iff n - q >= f (Byzantine orgs simply do not respond)."""

    @pytest.mark.parametrize(
        "quorum,faulty",
        [(1, 3), (2, 2), (2, 1), (3, 1), (4, 0)],
    )
    def test_live_when_enough_honest_orgs(self, quorum, faulty):
        assert N - quorum >= faulty  # precondition: theorem predicts live
        net, process = run_with_byzantine(quorum, faulty, collude=False)
        assert process.value is True

    @pytest.mark.parametrize(
        "quorum,faulty",
        [(4, 1), (3, 2), (2, 3)],
    )
    def test_not_live_when_quorum_unreachable(self, quorum, faulty):
        assert N - quorum < faulty  # theorem predicts not live
        net, process = run_with_byzantine(quorum, faulty, collude=False)
        assert process.value is False


class TestSafety:
    """Safety iff q >= f+1: with q <= f, colluding Byzantine orgs can
    endorse a forged write-set and commit it among themselves; with
    q >= f+1, at least one honest organization participates in every
    quorum and the forgery never assembles or commits."""

    def _forged_commit_attempt(self, quorum, faulty, seed=2):
        """A Byzantine client collects endorsements only from colluders
        and sends the tampered transaction to every organization as an
        ordinary commit. Returns every organization's ledger, the
        honest organizations' ids and the forgery's transaction id."""
        from repro.core.organization import MSG_COMMIT
        from repro.core.transaction import Endorsement, Proposal, Transaction
        from repro.crdt.clock import OpClock
        from repro.crdt.operation import Operation
        from repro.net.message import Message

        config = ExperimentConfig(num_orgs=N, quorum=quorum, seed=seed, scale=1)
        net = OrderlessChainNetwork(config)
        net.install_contract(AuctionContract)
        colluders = net.organizations[:faulty]
        client = net.ca.enroll("byz-client", "client")
        net.network.register("byz-client", lambda message: None)
        proposal = Proposal(
            "byz-client", "auction", "bid", {"auction": "a", "amount": 1}, OpClock("byz-client", 1)
        )
        # A forged write-set the honest contract would never produce.
        forged_op = Operation(
            "auction/a", ("byz-client",), 1_000_000, "gcounter", proposal.clock
        )
        write_set = [forged_op.to_wire()]
        # Colluding orgs sign whatever they are handed.
        endorsements = [
            Endorsement.create(org.identity, proposal.proposal_id, write_set)
            for org in colluders
        ]
        transaction = Transaction.assemble(client, proposal, write_set, endorsements)
        # Try to commit at every organization (colluders and honest).
        for org in net.organizations:
            net.network.send(
                Message(
                    sender="byz-client",
                    recipient=org.org_id,
                    msg_type=MSG_COMMIT,
                    body=transaction.to_wire(),
                    size_bytes=transaction.wire_size(),
                )
            )
        net.run(until=10.0)
        ledgers = {org.org_id: org.ledger for org in net.organizations}
        honest = [org.org_id for org in net.organizations[faulty:]]
        return ledgers, honest, transaction.transaction_id

    @pytest.mark.parametrize("quorum,faulty", [(2, 1), (3, 2), (4, 3), (2, 0)])
    def test_safe_when_quorum_exceeds_faulty(self, quorum, faulty):
        assert quorum >= faulty + 1  # theorem predicts safe
        ledgers, honest, txn_id = self._forged_commit_attempt(quorum, faulty)
        # No honest organization accepts the forgery: it carries only
        # f < q endorsements, so each logs it as invalid.
        for org_id in honest:
            assert ledgers[org_id].has_transaction(txn_id)
            assert not ledgers[org_id].is_valid_transaction(txn_id)

    @pytest.mark.parametrize("quorum,faulty", [(1, 1), (2, 2), (2, 3)])
    def test_unsafe_when_colluders_form_a_quorum(self, quorum, faulty):
        assert quorum < faulty + 1  # theorem predicts unsafe
        ledgers, honest, txn_id = self._forged_commit_attempt(quorum, faulty)
        # The forgery satisfies the endorsement policy, so it commits —
        # even honest organizations cannot tell it apart: it IS validly
        # endorsed per the (too weak) policy.
        assert all(ledger.is_valid_transaction(txn_id) for ledger in ledgers.values())
