"""Encode once: a transaction is serialized per transaction, not per organization.

Counts, not timings. One {8 of 16} transaction is committed at all 16
organizations while unrelated payloads are hashed between their
validations, and ``hashing_cache_info()["misses"]`` — container nodes
rendered — must stay within a budget that has one transaction-sized
term and only a small fixed-size term per organization (its digest
wrapper, two signed payloads, block header and receipt). Re-rendering
the shared wire at every organization, which is what the id-keyed
fragment table did once unrelated traffic had evicted it, costs
``16 x`` the wire and fails. Operations are rendered in one pass from
their typed fields, exactly once by each endorser, and that render
still counts the container nodes it covers.
"""

from collections import Counter

from repro.api import ExperimentConfig, build_network
from repro.core.organization import Organization
from repro.crdt.operation import Operation
from repro.crypto.hashing import canonical_bytes, hashing_cache_clear, hashing_cache_info

NUM_ORGS = 16
QUORUM = 8
# Container nodes of unrelated traffic hashed before each validation.
NOISE_NODES = 20_000
# Fixed-size wrappers an organization renders itself per transaction.
PER_ORG_NODES = 8


def _container_nodes(value) -> int:
    if isinstance(value, dict):
        return 1 + sum(_container_nodes(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return 1 + sum(_container_nodes(item) for item in value)
    return 0


def test_rendering_is_bounded_per_transaction_not_per_organization(monkeypatch):
    config = ExperimentConfig(
        system="orderlesschain",
        app="synthetic",
        num_orgs=NUM_ORGS,
        quorum=QUORUM,
        obj_count=4,
        seed=3,
    )
    net = build_network(config)
    client = net.clients[0]

    validations = []
    validate = Organization.validate_transaction

    def validate_after_unrelated_traffic(self, transaction):
        validations.append(self.org_id)
        canonical_bytes([[] for _ in range(NOISE_NODES - 1)])
        return validate(self, transaction)

    monkeypatch.setattr(Organization, "validate_transaction", validate_after_unrelated_traffic)

    # One-pass operation renders, per operation id: each endorser
    # emits its own operations, so each id is rendered once per endorser.
    renders = Counter()
    render = Operation._render

    def counting_render(self, clock_wire):
        renders[self.op_id] += 1
        return render(self, clock_wire)

    monkeypatch.setattr(Operation, "_render", counting_render)

    hashing_cache_clear()
    process = net.sim.process(
        client.submit_modify(
            "synthetic",
            "modify",
            {"object_indexes": [0, 1, 2, 3], "ops_per_object": 1, "crdt_type": "gcounter"},
        )
    )
    net.run(until=60.0)
    rendered = hashing_cache_info()["misses"] - NOISE_NODES * len(validations)

    txn_id = f"{client.client_id}:1"
    assert process.value is True
    assert net.committed_everywhere(txn_id) == NUM_ORGS
    assert set(validations) == set(net.node_ids)

    wire = net.organizations[0].ledger.log.block_at(0).payload
    wire_nodes = _container_nodes(wire)
    write_set_nodes = _container_nodes(wire["write_set"])
    # The envelope, its proposal, the write-set once and q flat
    # (org id, signature) entries: no endorsement carries a copy.
    assert len(wire["endorsements"]) == QUORUM
    assert wire_nodes == 1 + _container_nodes(wire["proposal"]) + write_set_nodes + 1 + QUORUM
    # Every operation of the write-set, rendered exactly once by each
    # endorser, and its fragment rides the Wire from then on.
    assert renders == {
        Operation.from_wire(op).op_id: QUORUM for op in wire["write_set"]
    }, renders
    assert all(hasattr(op, "fragment") for op in wire["write_set"])
    # Each endorser renders its own write-set; twice the wire covers
    # the client's envelope and its digest passes over the q
    # endorsements it compares.
    assert rendered <= QUORUM * write_set_nodes + 2 * wire_nodes + PER_ORG_NODES * NUM_ORGS, (
        rendered,
        wire_nodes,
    )
