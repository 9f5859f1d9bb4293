"""Unit tests of organization internals (without full client flows)."""

import pytest

from repro.bench.config import ExperimentConfig
from repro.core import OrderlessChainNetwork
from repro.core.organization import Organization
from repro.core.transaction import Endorsement, Proposal, Transaction
from repro.crdt.clock import OpClock
from repro.crdt.operation import Operation
from repro.contracts import VotingContract


@pytest.fixture
def net():
    network = OrderlessChainNetwork(ExperimentConfig(num_orgs=4, quorum=2, seed=1, scale=1))
    network.install_contract(lambda: VotingContract(parties_per_election=2))
    return network


def make_transaction(net, client_name="clientX", endorser_count=2, tamper_after=False):
    client = net.ca.enroll(client_name, "client")
    proposal = Proposal(client_name, "voting", "vote",
                        {"party": "party0", "election": "e"}, OpClock(client_name, 1))
    op = Operation(
        object_id="voting/e/party0",
        path=(client_name,),
        value=True,
        value_type="mvregister",
        clock=proposal.clock,
    )
    write_set = [op.to_wire()]
    endorsements = [
        Endorsement.create(net.organizations[i].identity, proposal.proposal_id, write_set)
        for i in range(endorser_count)
    ]
    if tamper_after:
        write_set = [dict(write_set[0], value=False)]
    return Transaction.assemble(client, proposal, write_set, endorsements)


class TestValidation:
    def test_valid_transaction_accepted(self, net):
        txn = make_transaction(net)
        valid, reason = net.organizations[0].validate_transaction(txn)
        assert valid, reason

    def test_insufficient_endorsements_rejected(self, net):
        txn = make_transaction(net, client_name="c1", endorser_count=1)
        valid, reason = net.organizations[0].validate_transaction(txn)
        assert not valid
        assert "endorsement policy" in reason

    def test_client_tampering_rejected(self, net):
        # Client swapped the write-set after endorsement: endorser
        # signatures no longer match the transaction's write-set.
        txn = make_transaction(net, client_name="c2", tamper_after=True)
        valid, reason = net.organizations[0].validate_transaction(txn)
        assert not valid

    def test_endorsement_from_client_identity_not_counted(self, net):
        client = net.ca.enroll("c3", "client")
        fake_endorser = net.ca.enroll("fake-org", "client")  # wrong role
        proposal = Proposal("c3", "voting", "vote",
                            {"party": "party0", "election": "e"}, OpClock("c3", 1))
        op = Operation("voting/e/party0", ("c3",), True, "mvregister", proposal.clock)
        write_set = [op.to_wire()]
        endorsements = [
            Endorsement.create(fake_endorser, proposal.proposal_id, write_set),
            Endorsement.create(net.organizations[0].identity, proposal.proposal_id, write_set),
        ]
        txn = Transaction.assemble(client, proposal, write_set, endorsements)
        valid, reason = net.organizations[0].validate_transaction(txn)
        assert not valid  # only one real organization endorsed

    def test_duplicate_endorser_counted_once(self, net):
        client = net.ca.enroll("c4", "client")
        proposal = Proposal("c4", "voting", "vote",
                            {"party": "party0", "election": "e"}, OpClock("c4", 1))
        op = Operation("voting/e/party0", ("c4",), True, "mvregister", proposal.clock)
        write_set = [op.to_wire()]
        same = Endorsement.create(net.organizations[0].identity, proposal.proposal_id, write_set)
        txn = Transaction.assemble(client, proposal, write_set, [same, same])
        valid, _ = net.organizations[0].validate_transaction(txn)
        assert not valid  # one distinct endorser < q=2

    def test_revoked_client_rejected(self, net):
        txn = make_transaction(net, client_name="c5")
        net.ca.revoke("c5")
        valid, reason = net.organizations[0].validate_transaction(txn)
        assert not valid
        assert "revoked" in reason

    def test_malformed_write_set_rejected(self, net):
        client = net.ca.enroll("c6", "client")
        proposal = Proposal("c6", "voting", "vote",
                            {"party": "party0", "election": "e"}, OpClock("c6", 1))
        bad_ws = [{"object_id": "x", "path": [], "value": -5, "value_type": "gcounter",
                   "clock": {"client_id": "c6", "counter": 1}}]
        endorsements = [
            Endorsement.create(net.organizations[i].identity, proposal.proposal_id, bad_ws)
            for i in range(2)
        ]
        txn = Transaction.assemble(client, proposal, bad_ws, endorsements)
        valid, reason = net.organizations[0].validate_transaction(txn)
        assert not valid
        assert "malformed" in reason


class TestTamperHelper:
    def test_tamper_changes_every_operation(self, net):
        write_set = [
            {"value_type": "gcounter", "value": 5},
            {"value_type": "mvregister", "value": True},
        ]
        tampered = Organization._tamper_write_set(write_set)
        assert tampered[0]["value"] == 1_000_005
        assert tampered[1]["value"] == "<tampered>"
        # The original is untouched.
        assert write_set[0]["value"] == 5


class TestCommitIdempotency:
    """Regression: replaying the same MSG_COMMIT wire twice commits once.

    Duplicate commits arise naturally — client retries resend the same
    signed wire, and the link fault model may duplicate messages in
    transit — so the handler must dedup by transaction id and only
    resend the receipt.
    """

    def test_duplicate_commit_wire_commits_once_and_reacks(self, net):
        from repro.core.organization import MSG_COMMIT
        from repro.net.message import Message

        org = net.organizations[0]
        txn = make_transaction(net, client_name="c-dup")
        receipts = []
        net.network.register("c-dup", lambda msg: receipts.append(msg))
        wire = txn.to_wire()
        for _ in range(2):
            message = Message(sender="c-dup", recipient=org.org_id,
                              msg_type=MSG_COMMIT, body=wire)
            net.sim.process(org._handle_commit(message))
        net.sim.run(until=5.0)
        # One ledger commit, but both sends were acknowledged.
        assert org.ledger.is_valid_transaction(txn.transaction_id)
        assert org.ledger.valid_transaction_count == 1
        assert len(receipts) == 2
        assert all(m.body["transaction_id"] == txn.transaction_id for m in receipts)


class TestParseOnce:
    def test_commit_parses_each_operation_once_and_stores_its_wire(self, net, monkeypatch):
        from repro.core.organization import MSG_COMMIT
        from repro.net.message import Message

        parsed = []
        original = Operation.from_wire.__func__
        monkeypatch.setattr(
            Operation,
            "from_wire",
            classmethod(lambda cls, wire: parsed.append(wire) or original(cls, wire)),
        )
        org = net.organizations[0]
        wire = make_transaction(net, client_name="c-once").to_wire()
        net.network.register("c-once", lambda msg: None)
        message = Message(sender="c-once", recipient=org.org_id, msg_type=MSG_COMMIT, body=wire)
        net.sim.process(org._handle_commit(message))
        net.sim.run(until=5.0)
        assert org.ledger.is_valid_transaction("c-once:1")
        # Validation and commit share one parse, and the committed set
        # holds the write-set's own dict rather than a rebuilt copy.
        assert len(parsed) == 1 and parsed[0] is wire["write_set"][0]
        (stored,) = org.ledger.ops["voting/e/party0"]
        assert stored is wire["write_set"][0]

