"""Tests for Byzantine organizations and clients (Section 8)."""

import pytest

from repro.bench.config import ExperimentConfig
from repro.core import (
    ByzantineClientConfig,
    ByzantineOrgConfig,
    OrderlessChainNetwork,
)
from repro.core.organization import MSG_COMMIT, MSG_ENDORSEMENT, MSG_PROPOSAL, Organization
from repro.core.transaction import Proposal, Transaction, write_set_digest
from repro.contracts import VotingContract
from repro.crdt.clock import OpClock
from repro.crdt.operation import TYPE_GCOUNTER, TYPE_MVREGISTER, Operation
from repro.crypto.hashing import Wire, sha256_hex


def build(num_orgs=4, quorum=2, seed=5):
    config = ExperimentConfig(num_orgs=num_orgs, quorum=quorum, seed=seed, scale=1)
    net = OrderlessChainNetwork(config)
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    return net


def vote(net, client, counter_party="party0"):
    return net.sim.process(
        client.submit_modify("voting", "vote", {"party": counter_party, "election": "e0"})
    )


class TestByzantineConfigValidation:
    def test_org_probabilities_validated(self):
        with pytest.raises(ValueError):
            ByzantineOrgConfig(drop_probability=1.5)

    def test_client_faults_validated(self):
        with pytest.raises(ValueError):
            ByzantineClientConfig(faults=frozenset({"teleport"}))
        with pytest.raises(ValueError):
            ByzantineClientConfig(faults=frozenset())
        with pytest.raises(ValueError):
            ByzantineClientConfig(fault_probability=-1)


class TestByzantineOrganizations:
    def test_tampering_org_prevents_assembly(self):
        # A wrong endorsement makes write-sets mismatch; with no
        # retries the transaction fails, and nothing commits (safety).
        net = build()
        bad = net.organizations[0]
        bad.byzantine = ByzantineOrgConfig(
            drop_probability=0.0, wrong_endorsement_probability=1.0
        )
        bad.byzantine_active = True
        voter = net.add_client("voter0")
        process = vote(net, voter)
        net.run(until=30.0)
        if process.value is False:
            # The Byzantine org was in the selected quorum.
            assert net.committed_everywhere("voter0:1") == 0

    def test_avoidance_recovers_from_tampering(self):
        # Figure 8(b): clients observe and avoid Byzantine orgs.
        net = build()
        bad = net.organizations[0]
        bad.byzantine = ByzantineOrgConfig(
            drop_probability=0.0, wrong_endorsement_probability=1.0
        )
        bad.byzantine_active = True
        voter = net.add_client(
            "voter0", config=net.config.with_(max_retries=6, avoid_byzantine=True)
        )
        process = vote(net, voter)
        net.run(until=60.0)
        assert process.value is True

    def test_silent_org_blacklisted_on_retry(self):
        net = build()
        bad = net.organizations[0]
        bad.byzantine = ByzantineOrgConfig(drop_probability=1.0)
        bad.byzantine_active = True
        voter = net.add_client(
            "voter0", config=net.config.with_(max_retries=6, avoid_byzantine=True)
        )
        process = vote(net, voter)
        net.run(until=60.0)
        assert process.value is True
        # If the drop-everything org was ever selected, it is now
        # blacklisted; either way it never endorsed anything.
        assert bad.endorsed_count == 0

    def test_byzantine_window_schedule_toggles(self):
        net = build()
        net.schedule_byzantine_window([net.node_ids[0]], start=5.0, end=10.0)
        org = net.organizations[0]
        states = {}
        net.sim.schedule_at(4.0, lambda: states.setdefault("before", org.byzantine_active))
        net.sim.schedule_at(7.0, lambda: states.setdefault("during", org.byzantine_active))
        net.sim.schedule_at(12.0, lambda: states.setdefault("after", org.byzantine_active))
        net.run(until=15.0)
        assert states == {"before": False, "during": True, "after": False}

    def test_safety_theorem_8_1_tampered_commit_rejected(self):
        """A client colluding with fewer than q orgs cannot commit an
        invalid transaction: honest orgs reject tampered write-sets."""
        net = build(num_orgs=4, quorum=2)
        voter = net.add_client(
            "voter0", byzantine=ByzantineClientConfig(faults=frozenset({"tamper"}))
        )
        process = vote(net, voter)
        net.run(until=30.0)
        assert process.value is False
        # Safety (Definition 3.4): the tampered transaction is never
        # committed as valid anywhere.
        assert net.committed_everywhere("voter0:1") == 0
        # It is, however, logged for bookkeeping at the orgs that saw it.
        rejections = sum(org.committed_invalid for org in net.organizations)
        assert rejections >= 1


class TestByzantineClients:
    def test_proposal_only_client_leaves_no_side_effects(self):
        net = build()
        ddos = net.add_client(
            "ddos", byzantine=ByzantineClientConfig(faults=frozenset({"proposal_only"}))
        )
        process = vote(net, ddos)
        net.run(until=30.0)
        assert process.value is False
        assert net.committed_everywhere("ddos:1") == 0
        for org in net.organizations:
            assert org.ledger.transaction_count == 0

    def test_partial_commit_spreads_via_gossip(self):
        # Fault 2: the client commits at fewer than q orgs; gossip still
        # delivers the transaction everywhere eventually.
        net = build()
        sneaky = net.add_client(
            "sneaky", byzantine=ByzantineClientConfig(faults=frozenset({"partial_commit"}))
        )
        process = vote(net, sneaky)
        net.run(until=60.0)
        # The client itself fails (it cannot collect q receipts) ...
        assert process.value is False
        # ... but the transaction is valid, so gossip spreads it to all.
        assert net.committed_everywhere("sneaky:1") == 4
        assert net.converged()

    def test_split_clock_client_cannot_assemble(self):
        # Fault 3: different timestamps to different orgs -> mismatched
        # endorsements -> no valid transaction.
        net = build()
        splitter = net.add_client(
            "splitter", byzantine=ByzantineClientConfig(faults=frozenset({"split_clock"}))
        )
        process = vote(net, splitter)
        net.run(until=30.0)
        assert process.value is False
        assert net.committed_everywhere("splitter:1") == 0

    def test_no_increment_client_does_not_corrupt_others(self):
        # Fault 4: a client that never advances its clock only hurts
        # itself; other clients' operations are unaffected.
        net = build()
        stuck = net.add_client(
            "stuck", byzantine=ByzantineClientConfig(faults=frozenset({"no_increment"}))
        )
        honest = net.add_client("honest")

        def scenario():
            yield net.sim.process(
                stuck.submit_modify("voting", "vote", {"party": "party0", "election": "e0"})
            )
            yield net.sim.process(
                stuck.submit_modify("voting", "vote", {"party": "party1", "election": "e0"})
            )
            yield net.sim.process(
                honest.submit_modify("voting", "vote", {"party": "party1", "election": "e0"})
            )

        net.sim.process(scenario())
        net.run(until=60.0)
        assert net.converged()
        party1 = net.organizations[0].read_state("voting/e0/party1")
        assert party1["honest"] is True

    def test_revoked_client_is_ignored(self):
        net = build()
        voter = net.add_client("voter0")
        net.ca.revoke("voter0")
        process = vote(net, voter)
        net.run(until=30.0)
        assert process.value is False
        for org in net.organizations:
            assert org.endorsed_count == 0


def _sent_bodies(net, msg_type):
    """Record the body of every ``msg_type`` message the network sends."""
    bodies = []
    send = net.network.send

    def recording_send(message):
        if message.msg_type == msg_type:
            bodies.append(message.body)
        send(message)

    net.network.send = recording_send
    return bodies


class TestTamperedCopiesHashAfresh:
    """Wire payloads memoize their canonical bytes and the object
    decoded from them, and refuse mutation, so every tamper path edits
    a plain ``dict`` copy — which must hash and decode by its own
    content, never by the original's memos."""

    def test_org_tampered_write_set(self):
        clock = OpClock("voter0", 1)
        write_set = [
            Operation("voting/e0/party0", ("voter0",), 1, TYPE_GCOUNTER, clock, 0).to_wire(),
            Operation("voting/e0/party1", ("voter0",), "x", TYPE_MVREGISTER, clock, 1).to_wire(),
        ]
        honest = write_set_digest(write_set)  # fills every operation's memo
        honest_ops = [Operation.from_wire(op) for op in write_set]  # both memos
        tampered = Organization._tamper_write_set(write_set)
        assert all(type(op) is dict for op in tampered)
        assert write_set_digest(tampered) != honest
        assert write_set_digest(write_set) == honest
        for op, honest_op in zip(tampered, honest_ops):
            decoded = Operation.from_wire(op)
            assert decoded is not honest_op and decoded.value != honest_op.value
            assert Operation.from_wire(op) is not decoded  # plain: never memoized
        assert [Operation.from_wire(op) for op in write_set] == honest_ops

    def test_client_tampered_write_set(self):
        net = build(num_orgs=4, quorum=2)
        voter = net.add_client(
            "voter0", byzantine=ByzantineClientConfig(faults=frozenset({"tamper"}))
        )
        endorsements = _sent_bodies(net, MSG_ENDORSEMENT)
        commits = _sent_bodies(net, MSG_COMMIT)
        vote(net, voter)
        net.run(until=30.0)
        assert commits
        for wire in commits:
            # The transaction carries one write-set, the tampered copy;
            # its endorsements are (org id, signature) pairs only.
            assert all(set(entry) == {"org_id", "signature"} for entry in wire["endorsements"])
            assert all(type(op) is dict for op in wire["write_set"])
            transaction = Transaction.from_wire(wire)
            signers = {entry["org_id"] for entry in wire["endorsements"]}
            endorsed = [
                body["write_set"]
                for body in endorsements
                if body["org_id"] in signers and body["proposal_id"] == transaction.transaction_id
            ]
            assert len(endorsed) == len(signers) == 2
            for write_set in endorsed:
                assert all(type(op) is Wire for op in write_set)
                assert write_set_digest(wire["write_set"]) != write_set_digest(write_set)
            # The organizations decoded this very Wire; what they (and
            # we) get carries the tampered values, decoded afresh, never
            # the endorsed operations' decoded objects ...
            assert all(e.write_set is transaction.write_set for e in transaction.endorsements)
            for write_set in endorsed:
                for op, endorsed_op in zip(transaction.operations(), write_set):
                    honest_op = Operation.from_wire(endorsed_op)
                    assert op is not honest_op and op.value != honest_op.value
            # ... and the endorsers signed the honest digest, so no
            # organization accepts the tampered one.
            assert not any(org.validate_transaction(transaction)[0] for org in net.organizations)
            assert not any(
                org.ledger.is_valid_transaction(transaction.transaction_id)
                for org in net.organizations
            )

    def test_client_split_clock_proposals(self):
        net = build()
        splitter = net.add_client(
            "splitter", byzantine=ByzantineClientConfig(faults=frozenset({"split_clock"}))
        )
        proposals = _sent_bodies(net, MSG_PROPOSAL)
        vote(net, splitter)
        net.run(until=30.0)
        first, *rest = proposals
        assert type(first) is Wire and rest
        assert all(type(body) is dict for body in rest)
        assert len({sha256_hex(body) for body in proposals}) == len(proposals)
        assert Proposal.from_wire(first) is Proposal.from_wire(first)
        assert all(Proposal.from_wire(body) is not Proposal.from_wire(body) for body in rest)
        counters = {Proposal.from_wire(body).clock.counter for body in proposals}
        assert len(counters) == len(proposals)
