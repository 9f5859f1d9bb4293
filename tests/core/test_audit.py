"""Tests for receipt-based ledger auditing."""

import pytest

from repro.bench.config import ExperimentConfig
from repro.core import OrderlessChainNetwork
from repro.core.audit import audit_receipt
from repro.core.transaction import Receipt
from repro.contracts import AuctionContract


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
