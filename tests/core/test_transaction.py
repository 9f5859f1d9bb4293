"""Tests for proposals, endorsements, transactions, and receipts."""

import json

import pytest

from repro.core.transaction import (
    Endorsement,
    Proposal,
    Receipt,
    Transaction,
    write_set_digest,
)
from repro.crdt.clock import OpClock
from repro.crdt.operation import Operation
from repro.crypto.hashing import Wire, sha256_hex
from repro.crypto.identity import CertificateAuthority


@pytest.fixture
def ca():
    return CertificateAuthority()


def make_proposal(client="client0", counter=1):
    return Proposal(
        client_id=client,
        contract_id="voting",
        function="vote",
        params={"party": "p1", "election": "e0"},
        clock=OpClock(client, counter),
    )


def make_write_set():
    op = Operation(
        object_id="voting/e0/p1",
        path=("voter",),
        value=True,
        value_type="mvregister",
        clock=OpClock("client0", 1),
    )
    return [op.to_wire()]


def test_proposal_id_is_client_scoped(ca):
    assert make_proposal().proposal_id == "client0:1"
    assert make_proposal(counter=2).proposal_id == "client0:2"


def test_proposal_wire_roundtrip():
    proposal = make_proposal()
    assert Proposal.from_wire(proposal.to_wire()) == proposal


def test_every_message_type_hands_out_one_immutable_wire(ca):
    org = ca.enroll("org0", "organization")
    client = ca.enroll("client0", "client")
    proposal = make_proposal()
    endorsement = Endorsement.create(org, proposal.proposal_id, make_write_set())
    transaction = Transaction.assemble(client, proposal, make_write_set(), [endorsement])
    operation = transaction.operations()[0]
    for message in (proposal, endorsement, transaction, operation):
        wire = message.to_wire()
        assert type(wire) is Wire
        assert message.to_wire() is wire
    # from_wire keeps whatever dict it parsed, Wire or plain (JSON).
    assert Transaction.from_wire(transaction.to_wire()).to_wire() is transaction.to_wire()
    plain = json.loads(json.dumps(transaction.to_wire()))
    assert Transaction.from_wire(plain).to_wire() is plain
    assert sha256_hex(plain) == sha256_hex(transaction.to_wire())


def test_write_set_digest_is_content_addressed():
    ws = make_write_set()
    assert write_set_digest(ws) == write_set_digest([dict(op) for op in ws])
    tampered = [dict(ws[0], value=False)]
    assert write_set_digest(ws) != write_set_digest(tampered)


def test_endorsement_signature_verifies(ca):
    org = ca.enroll("org0", "organization")
    ws = make_write_set()
    endorsement = Endorsement.create(org, "client0:1", ws)
    payload = Endorsement.signed_payload("client0:1", ws)
    assert ca.verify("org0", payload, endorsement.signature)


def test_endorsement_signature_breaks_on_tampered_write_set(ca):
    # Section 4: "tampering makes the signature invalid".
    org = ca.enroll("org0", "organization")
    ws = make_write_set()
    endorsement = Endorsement.create(org, "client0:1", ws)
    tampered = [dict(ws[0], value=False)]
    payload = Endorsement.signed_payload("client0:1", tampered)
    assert not ca.verify("org0", payload, endorsement.signature)


def test_endorsement_wire_roundtrip(ca):
    org = ca.enroll("org0", "organization")
    endorsement = Endorsement.create(org, "client0:1", make_write_set())
    assert Endorsement.from_wire(endorsement.to_wire()) == endorsement


def test_transaction_assembly_and_client_signature(ca):
    org = ca.enroll("org0", "organization")
    client = ca.enroll("client0", "client")
    proposal = make_proposal()
    ws = make_write_set()
    endorsement = Endorsement.create(org, proposal.proposal_id, ws)
    transaction = Transaction.assemble(client, proposal, ws, [endorsement])
    assert transaction.transaction_id == "client0:1"
    payload = Transaction.signed_payload(transaction.transaction_id, ws)
    assert ca.verify("client0", payload, transaction.client_signature)


def test_transaction_operations_parse(ca):
    client = ca.enroll("client0", "client")
    transaction = Transaction.assemble(client, make_proposal(), make_write_set(), [])
    operations = transaction.operations()
    assert len(operations) == 1
    assert operations[0].object_id == "voting/e0/p1"


def test_transaction_wire_roundtrip(ca):
    org = ca.enroll("org0", "organization")
    client = ca.enroll("client0", "client")
    proposal = make_proposal()
    ws = make_write_set()
    endorsement = Endorsement.create(org, proposal.proposal_id, ws)
    transaction = Transaction.assemble(client, proposal, ws, [endorsement])
    assert Transaction.from_wire(transaction.to_wire()) == transaction


def test_wire_size_grows_with_content(ca):
    client = ca.enroll("client0", "client")
    small = Transaction.assemble(client, make_proposal(), make_write_set(), [])
    big = Transaction.assemble(
        client, make_proposal(counter=2), make_write_set() * 5, []
    )
    assert big.wire_size() > small.wire_size()


def test_receipt_signature_binds_block_hash(ca):
    org = ca.enroll("org0", "organization")
    receipt = Receipt.create(org, "client0:1", "ab" * 32, valid=True)
    payload = Receipt.signed_payload("client0:1", "ab" * 32, True)
    assert ca.verify("org0", payload, receipt.signature)
    forged = Receipt.signed_payload("client0:1", "cd" * 32, True)
    assert not ca.verify("org0", forged, receipt.signature)


def test_receipt_wire_roundtrip(ca):
    org = ca.enroll("org0", "organization")
    receipt = Receipt.create(org, "t", "00" * 32, valid=False)
    assert Receipt.from_wire(receipt.to_wire()) == receipt


def test_operations_are_parsed_once(ca):
    client = ca.enroll("client0", "client")
    write_set = make_write_set()
    transaction = Transaction.assemble(client, make_proposal(), write_set, [])
    operations = transaction.operations()
    assert transaction.operations() is operations
    # The parsed operation hands back the write-set's own dict, so a
    # commit stores it without rebuilding it.
    assert operations[0].to_wire() is write_set[0]


def test_tampered_write_set_parses_afresh(ca):
    import dataclasses

    client = ca.enroll("client0", "client")
    transaction = Transaction.assemble(client, make_proposal(), make_write_set(), [])
    honest = transaction.operations()
    # Tamper paths build new lists of new dicts and a new transaction.
    tampered_write_set = [dict(wire, value=False) for wire in transaction.write_set]
    tampered = dataclasses.replace(transaction, write_set=tampered_write_set)
    assert tampered.operations() is not honest
    assert [operation.value for operation in tampered.operations()] == [False]
    assert [operation.value for operation in transaction.operations()] == [True]
    assert tampered.digest() != transaction.digest()


def test_malformed_write_set_raises_on_every_call(ca):
    from repro.errors import CRDTError

    client = ca.enroll("client0", "client")
    malformed = [dict(make_write_set()[0], value_type="no-such-type")]
    transaction = Transaction.assemble(client, make_proposal(), malformed, [])
    for _ in range(2):
        with pytest.raises(CRDTError):
            transaction.operations()
