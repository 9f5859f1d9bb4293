"""Decode once: a transaction is parsed per transaction, not per organization.

Counts, not timings. One {2 of 8} transaction carrying 8 objects x 4
MV-Register operations is committed at all 8 organizations. Every
protocol object is built by its sender (the client its proposal and
transaction, each endorser its operations and endorsement) and then at
most **once more** network-wide, from the wire — not once per
organization that receives the wire — and the write-set is hashed by
the parties that must (each endorser, the client per endorsement it
compares and once to sign, validation once), not again at every
organization. Validation is called at every organization, once each,
but its verdict rides on the shared transaction object (keyed by CA,
CA epoch and policy): the ``1 + q`` ``ca.verify`` calls are made once
network-wide, by the first organization to validate. What each
organization's validation costs in simulated time is charged by the
caller and is not counted here.
"""

from collections import Counter

import repro.core.transaction as transaction_module
from repro.api import ExperimentConfig, build_network
from repro.core.organization import Organization
from repro.core.transaction import Endorsement, Proposal, Transaction
from repro.crdt.operation import Operation
from repro.crypto.identity import CertificateAuthority

NUM_ORGS = 8
QUORUM = 2
OBJECTS = 8
OPS_PER_OBJECT = 4
OPS = OBJECTS * OPS_PER_OBJECT


def _count_calls(monkeypatch, owner, name, counter, key=None):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counter[key or name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_parsing_and_digesting_are_bounded_per_transaction_not_per_organization(monkeypatch):
    config = ExperimentConfig(
        system="orderlesschain",
        app="synthetic",
        num_orgs=NUM_ORGS,
        quorum=QUORUM,
        obj_count=OBJECTS,
        seed=3,
    )
    net = build_network(config)
    client = net.clients[0]

    counts = Counter()
    for cls in (Transaction, Proposal, Endorsement, Operation):
        _count_calls(monkeypatch, cls, "__init__", counts, key=cls.__name__)
    # write_set_digest is imported by name elsewhere; the hash call
    # beneath it is reached from every importer.
    _count_calls(monkeypatch, transaction_module, "sha256_hex", counts, key="write_set_digest")
    _count_calls(monkeypatch, CertificateAuthority, "verify", counts)

    # (org id, ca.verify calls it made) per validate_transaction call.
    validations = []
    validate = Organization.validate_transaction

    def counting_validate(self, transaction):
        before = counts["verify"]
        verdict = validate(self, transaction)
        validations.append((self.org_id, counts["verify"] - before))
        return verdict

    monkeypatch.setattr(Organization, "validate_transaction", counting_validate)

    process = net.sim.process(
        client.submit_modify(
            "synthetic",
            "modify",
            {
                "object_indexes": list(range(OBJECTS)),
                "ops_per_object": OPS_PER_OBJECT,
                "crdt_type": "mvregister",
            },
        )
    )
    net.run(until=60.0)

    assert process.value is True
    assert net.committed_everywhere(f"{client.client_id}:1") == NUM_ORGS
    wire = net.organizations[0].ledger.log.block_at(0).payload
    assert len(wire["write_set"]) == OPS and len(wire["endorsements"]) == QUORUM
    # The q decoded endorsements hold the transaction's one write-set.
    decoded = Transaction.from_wire(wire)
    assert all(e.write_set is decoded.write_set for e in decoded.endorsements)

    # Every organization validates once; the signatures are verified
    # once network-wide, by the first to validate.
    assert sorted(org_id for org_id, _ in validations) == sorted(net.node_ids)
    first, _ = validations[0]
    assert dict(validations) == {
        org_id: 1 + QUORUM if org_id == first else 0 for org_id in net.node_ids
    }
    assert counts["verify"] == 1 + QUORUM

    # Built by the sender, plus exactly one decode network-wide
    # (per-organization decoding would add NUM_ORGS, not 1).
    assert counts["Transaction"] == 1 + 1
    assert counts["Proposal"] == 1 + 1
    # An endorsement is signed by its endorser and decoded by the
    # client from the endorsement message; the transaction carries
    # only its (org id, signature) pair, decoded once network-wide
    # into an endorsement over the transaction's own write-set.
    assert counts["Endorsement"] == QUORUM + QUORUM + QUORUM
    assert counts["Operation"] == QUORUM * OPS + OPS
    # q endorsers sign it, the client groups q endorsements by it and
    # signs it, validation hashes it once for all organizations.
    assert counts["write_set_digest"] == 2 * QUORUM + 2
