"""Tests for receipt-based ledger auditing."""

import pytest

from repro.bench.config import ExperimentConfig
from repro.core import OrderlessChainNetwork
from repro.core.audit import audit_receipt
from repro.core.organization import MSG_COMMIT, MSG_RECEIPT
from repro.core.transaction import Receipt, Transaction
from repro.contracts import AuctionContract, VotingContract
from repro.net.message import Message


@pytest.fixture
def committed_network():
    net = OrderlessChainNetwork(ExperimentConfig(num_orgs=4, quorum=4, seed=4, scale=1))
    net.install_contract(AuctionContract)
    filler = net.add_client("bob")
    client = net.add_client("alice")

    def scenario():
        # A first transaction so alice's lands at height >= 1, at every
        # organization (EP {4 of 4}: all orgs commit both, in order).
        yield net.sim.process(filler.submit_modify("auction", "bid", {"auction": "a", "amount": 1}))
        yield net.sim.process(client.submit_modify("auction", "bid", {"auction": "a", "amount": 10}))

    net.sim.process(scenario())
    net.run(until=30.0)
    return net


def receipt_for(net, org):
    """Reconstruct the receipt the org issued (same signed payload)."""
    block = org.ledger.log.find_payload(
        lambda payload: payload.get("proposal", {}).get("client_id") == "alice"
    )
    assert block is not None
    return Receipt.create(org.identity, "alice:1", block.block_hash, valid=True)


def test_clean_ledger_passes_audit(committed_network):
    net = committed_network
    org = next(o for o in net.organizations if o.ledger.has_transaction("alice:1"))
    finding = audit_receipt(receipt_for(net, org), org.ledger, net.ca)
    assert finding.clean


def test_payload_tampering_detected(committed_network):
    # "The organization cannot modify the content of the transaction
    # without destroying and invalidating RCPT_i" (Section 4).
    net = committed_network
    org = next(o for o in net.organizations if o.ledger.has_transaction("alice:1"))
    receipt = receipt_for(net, org)
    block = org.ledger.log.find_payload(
        lambda payload: payload.get("proposal", {}).get("client_id") == "alice"
    )
    org.ledger.log.tamper(block.height, {"forged": True})
    finding = audit_receipt(receipt, org.ledger, net.ca)
    assert not finding.clean
    assert not finding.block_found


def test_tampering_earlier_blocks_detected_via_chain(committed_network):
    net = committed_network
    org = next(
        o
        for o in net.organizations
        if o.ledger.has_transaction("alice:1") and len(o.ledger.log) >= 1
    )
    receipt = receipt_for(net, org)
    # Prepend-era tampering: falsify block 0's payload but keep the
    # receipted block untouched (only works when it is not block 0).
    block = org.ledger.log.find_payload(
        lambda payload: payload.get("proposal", {}).get("client_id") == "alice"
    )
    if block.height == 0:
        pytest.skip("receipted block is the genesis block in this run")
    org.ledger.log.tamper(0, {"forged": True})
    finding = audit_receipt(receipt, org.ledger, net.ca)
    assert finding.block_found  # the receipted block itself is intact...
    assert not finding.chain_intact  # ...but the chain betrays the org
    assert not finding.clean


def test_forged_receipt_rejected(committed_network):
    net = committed_network
    org = net.organizations[0]
    forged = Receipt(
        org_id=org.org_id,
        transaction_id="alice:1",
        block_hash="ab" * 32,
        valid=True,
        signature="00" * 32,
    )
    finding = audit_receipt(forged, org.ledger, net.ca)
    assert not finding.receipt_valid
    assert not finding.clean


@pytest.fixture
def two_votes():
    """voter0 commits two votes; every organization holds both."""
    net = OrderlessChainNetwork(ExperimentConfig(num_orgs=4, quorum=2, seed=5, scale=1))
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    voter = net.add_client("voter0")
    commits, receipts = {}, []
    send = net.network.send

    def recording_send(message):
        if message.msg_type == MSG_COMMIT:
            commits[Transaction.from_wire(message.body).transaction_id] = message.body
        elif message.msg_type == MSG_RECEIPT:
            receipts.append(Receipt.from_wire(message.body))
        send(message)

    net.network.send = recording_send

    def scenario():
        for election in ("e0", "e1"):
            yield net.sim.process(
                voter.submit_modify("voting", "vote", {"party": "party0", "election": election})
            )

    net.sim.process(scenario())
    net.run(until=30.0)
    for org in net.organizations:
        assert org.ledger.is_valid_transaction("voter0:1")
        assert org.ledger.is_valid_transaction("voter0:2")
    return net, commits, receipts


def logged_block(ledger, txn_id):
    """The block of the log that holds ``txn_id``."""
    return ledger.log.find_payload(
        lambda payload: Transaction.from_wire(payload).transaction_id == txn_id
    )


def test_duplicate_commit_receipt_names_the_transactions_own_block(two_votes):
    # RCPT_i is the signed hash of "the block containing TS_i"
    # (Section 4): a resent commit is answered for that block, not for
    # whatever block heads the log by then.
    net, commits, receipts = two_votes
    org = net.organizations[0]
    first_block = logged_block(org.ledger, "voter0:1")
    assert org.ledger.log.head_hash != first_block.block_hash
    receipts.clear()
    net.network.send(
        Message(
            sender="voter0",
            recipient=org.org_id,
            msg_type=MSG_COMMIT,
            body=commits["voter0:1"],
            size_bytes=1_000,
        )
    )
    net.run(until=40.0)
    (receipt,) = receipts
    assert (receipt.org_id, receipt.transaction_id, receipt.valid) == (org.org_id, "voter0:1", True)
    assert receipt.block_hash == first_block.block_hash
    assert audit_receipt(receipt, org.ledger, net.ca).clean


def test_receipt_naming_another_transactions_block_fails_audit(two_votes):
    # A correctly signed receipt whose hash names an intact block that
    # logs a *different* transaction is not a receipt for this one.
    net, _, _ = two_votes
    org = net.organizations[0]
    other_block = logged_block(org.ledger, "voter0:2")
    receipt = Receipt.create(org.identity, "voter0:1", other_block.block_hash, valid=True)
    finding = audit_receipt(receipt, org.ledger, net.ca)
    assert finding.receipt_valid and finding.chain_intact
    assert not finding.block_found
    assert not finding.clean
    # Nor does a receipt that misstates the verdict of the right block.
    own_block = logged_block(org.ledger, "voter0:1")
    receipt = Receipt.create(org.identity, "voter0:1", own_block.block_hash, valid=False)
    assert not audit_receipt(receipt, org.ledger, net.ca).clean
