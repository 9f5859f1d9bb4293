"""A transaction carries its write-set once.

In the paper a transaction ``TS_i`` is the write-set plus the endorsers'
signatures over its digest. The wire holds exactly that: the write-set
once and ``q`` ``{org_id, signature}`` entries, and decoding gives each
endorsement the transaction's own proposal id and write-set list. The
ids every organization keys its state on (``Operation.op_id``,
``Proposal.proposal_id``) are built once per shared object, not per
call. Structure and identity, not timings or sizes.
"""

import pytest

from repro.bench.config import ExperimentConfig
from repro.contracts import VotingContract
from repro.core import OrderlessChainNetwork
from repro.core.transaction import Transaction, write_set_digest
from repro.crypto.hashing import canonical_fragment

NUM_ORGS = 4
QUORUM = 2
TXN_ID = "voter0:1"


@pytest.fixture(scope="module")
def net():
    net = OrderlessChainNetwork(
        ExperimentConfig(num_orgs=NUM_ORGS, quorum=QUORUM, seed=5, scale=1)
    )
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    voter = net.add_client("voter0")
    process = net.sim.process(
        voter.submit_modify("voting", "vote", {"party": "party0", "election": "e0"})
    )
    net.run(until=30.0)
    assert process.value is True
    assert net.committed_everywhere(TXN_ID) == NUM_ORGS
    return net


def committed_wires(net):
    """The vote's committed wire at every organization (its only block)."""
    return [org.ledger.log.block_at(0).payload for org in net.organizations]


def test_endorsement_entries_carry_no_write_set(net):
    for wire in committed_wires(net):
        assert len(wire["endorsements"]) == QUORUM
        for entry in wire["endorsements"]:
            assert "write_set" not in entry
            assert set(entry) == {"org_id", "signature"}


def test_the_write_set_is_rendered_once_in_the_transaction(net):
    for wire in committed_wires(net):
        fragment = canonical_fragment(wire)
        write_set = canonical_fragment(wire["write_set"])
        assert wire["write_set"] and fragment.count(write_set) == 1


def test_decoded_endorsements_share_the_transactions_write_set(net):
    for wire in committed_wires(net):
        transaction = Transaction.from_wire(wire)
        assert len(transaction.endorsements) == QUORUM
        for endorsement in transaction.endorsements:
            assert endorsement.write_set is transaction.write_set
            assert endorsement.proposal_id == transaction.transaction_id


def test_ids_are_built_once_per_object(net):
    transaction = Transaction.from_wire(committed_wires(net)[0])
    proposal = transaction.proposal
    assert type(proposal.proposal_id) is str
    assert proposal.proposal_id is proposal.proposal_id
    assert transaction.transaction_id is proposal.proposal_id
    for operation in transaction.operations():
        assert type(operation.op_id) is str
        assert operation.op_id is operation.op_id
    # Decode once shares the objects, and so the ids: every
    # organization's committed set is keyed on one string.
    for org in net.organizations:
        (key,) = [txn_id for txn_id in org.ledger.valid if txn_id == TXN_ID]
        assert key is proposal.proposal_id


def signed_old_shape(net, write_set, carried):
    """The committed vote in the former wire shape, over ``write_set``:
    its entries each carry ``carried`` and a proposal id. The client
    signed ``write_set``; the endorsers signed the committed one."""
    honest = Transaction.from_wire(committed_wires(net)[0])
    client = net.clients[0]
    transaction = Transaction.assemble(
        client.identity, honest.proposal, write_set, list(honest.endorsements)
    )
    return {
        "proposal": honest.proposal.to_wire(),
        "write_set": write_set,
        "endorsements": [
            {
                "org_id": e.org_id,
                "proposal_id": e.proposal_id,
                "write_set": carried,
                "signature": e.signature,
            }
            for e in honest.endorsements
        ],
        "client_signature": transaction.client_signature,
    }


def test_an_old_shape_wire_decodes_against_its_own_write_set(net):
    org = net.organizations[0]
    honest = committed_wires(net)[0]["write_set"]
    other = [dict(op, value="<other>") for op in honest]  # another value per register
    assert write_set_digest(other) != write_set_digest(honest)
    # Entries carrying another write-set decode, and the endorsements
    # over the transaction's own write-set still validate ...
    wire = signed_old_shape(net, honest, other)
    transaction = Transaction.from_wire(wire)
    assert transaction.write_set is wire["write_set"]
    assert all(e.write_set is transaction.write_set for e in transaction.endorsements)
    assert org.validate_transaction(transaction) == (True, "")
    # ... and entries carrying the endorsed write-set cannot vouch for
    # a different one in the transaction: every endorsement is checked
    # against the transaction's own digest, and none verifies.
    wire = signed_old_shape(net, other, honest)
    transaction = Transaction.from_wire(wire)
    assert all(e.write_set is transaction.write_set for e in transaction.endorsements)
    valid, reason = org.validate_transaction(transaction)
    assert not valid and "0 valid endorsements" in reason
