"""Unit tests of the organization's watermark anti-entropy plumbing.

Covers the digest wire form and modeled size, sync pagination, the O(1)
snapshot payload (the committed count, never a copy of the committed
set), end-to-end reconciliation through a partition heal, malformed
bodies of all six peer message types (dropped and counted, never raised),
a digest that claims more ids than one reconcile pulls (capped and
counted), a sync request longer than a page or repeating an id
(dropped and counted), signed write-sets that do not parse
(rejected, never raised) and proposals or write-sets nested past the
recursion limit (dropped and counted, never raised).
"""

from dataclasses import replace

import pytest

from repro.bench.config import ExperimentConfig
from repro.contracts import SupplyChainContract, SyntheticContract, VotingContract
from repro.core import OrderlessChainNetwork
from repro.core.organization import (
    MSG_COMMIT,
    MSG_GOSSIP,
    MSG_PROPOSAL,
    MSG_READ,
    MSG_SYNC_DIGEST,
    MSG_SYNC_REQUEST,
    SYNC_PULL_PAGES,
)
from repro.core.transaction import Endorsement, Proposal, Transaction
from repro.crdt.clock import OpClock
from repro.net.message import Message


def build_net(**settings_kwargs):
    config = ExperimentConfig(num_orgs=4, quorum=2, seed=1, scale=1, **settings_kwargs)
    net = OrderlessChainNetwork(config)
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    return net


def run_votes(net, votes=6, until=30.0):
    def vote(client, index, delay):
        yield net.sim.timeout(delay)
        yield net.sim.process(
            client.submit_modify(
                "voting", "vote", {"party": f"party{index % 2}", "election": "e0"}
            )
        )

    for index in range(votes):
        client = net.add_client(f"c{index}")
        net.sim.process(vote(client, index, 0.2 + 0.5 * index))
    net.run(until=until)
    return net


def committed_sets(net):
    return {frozenset(org.ledger.valid) for org in net.organizations}


class TestDigestBody:
    def test_watermark_body_and_size(self):
        net = run_votes(build_net())
        org = net.organizations[0]
        assert len(org.ledger.valid) > 0
        body, size = org._digest_body_and_size()
        assert set(body) == {"watermarks"}
        marks = org.watermarks
        assert size == org.perf.watermark_digest_bytes(
            marks.client_count, marks.gap_count
        )
        # The watermark digest covers exactly the committed set.
        assert set(marks.ids()) == set(org.ledger.valid)

    def test_watermark_digest_is_smaller_for_long_histories(self):
        # ...than the explicit id list of the same committed set.
        net = run_votes(build_net(), votes=8, until=40.0)
        org = net.organizations[0]
        _, watermark_size = org._digest_body_and_size()
        assert watermark_size < org.perf.id_list_bytes(len(org.ledger.valid))


class TestSnapshots:
    def test_snapshot_stores_position_not_id_set(self):
        net = run_votes(build_net(snapshot_interval=5.0))
        org = net.organizations[0]
        assert org.snapshots_taken > 0
        assert org.snapshot == len(org.ledger.valid) > 0

    def test_committed_sets_match_across_converged_orgs(self):
        net = run_votes(build_net())
        (committed,) = committed_sets(net)
        assert len(committed) == 6


class TestPagination:
    def test_sync_responses_paginate_in_watermark_mode(self):
        net = build_net()
        org = net.organizations[0]
        org.perf = replace(org.perf, sync_page_txns=2)
        wires = [{"write_set": []} for _ in range(5)]
        before = net.network.sent_by_type.get(MSG_GOSSIP, 0)
        pages = org._send_txn_batches(net.organizations[1].org_id, wires)
        assert pages == 3
        assert net.network.sent_by_type.get(MSG_GOSSIP, 0) - before == 3

    def test_sync_requests_paginate(self):
        net = build_net()
        org = net.organizations[0]
        org.perf = replace(org.perf, sync_page_txns=2)
        ids = [f"c:{n}" for n in range(1, 8)]
        pages = org._send_sync_requests(net.organizations[1].org_id, ids)
        assert pages == 4
        assert net.network.sent_by_type.get(MSG_SYNC_REQUEST, 0) == 4
        assert net.network.bytes_by_type[MSG_SYNC_REQUEST] == (
            3 * org.perf.id_list_bytes(2) + org.perf.id_list_bytes(1)
        )


class TestMalformedSyncBodies:
    """A malformed sync body is dropped and counted, never raised out
    of ``_on_message`` — and the organization keeps serving."""

    CASES = {
        "digest-no-watermarks": (MSG_SYNC_DIGEST, {}),
        "digest-watermarks-not-a-mapping": (
            MSG_SYNC_DIGEST,
            {"watermarks": ["c0:1"]},
        ),
        "digest-retired-id-list-form": (
            MSG_SYNC_DIGEST,
            {"txn_ids": ["c0:1"]},
        ),
        "request-no-ids": (MSG_SYNC_REQUEST, {}),
        "request-ids-not-a-list": (
            MSG_SYNC_REQUEST,
            {"txn_ids": "c0:1"},
        ),
        "request-id-unhashable": (
            MSG_SYNC_REQUEST,
            {"txn_ids": [["c0:1"]]},
        ),
        "request-id-a-mapping": (
            MSG_SYNC_REQUEST,
            {"txn_ids": [{"a": 1}]},
        ),
        "digest-not-a-mapping": (MSG_SYNC_DIGEST, ["x"]),
        "request-none": (MSG_SYNC_REQUEST, None),
        "digest-entry-not-a-pair": (
            MSG_SYNC_DIGEST,
            {"watermarks": {"clients": {"c0": 5}}},
        ),
        "digest-high-not-an-int": (
            MSG_SYNC_DIGEST,
            {"watermarks": {"clients": {"c0": ["x", []]}}},
        ),
        "digest-high-a-bool": (
            MSG_SYNC_DIGEST,
            {"watermarks": {"clients": {"c0": [True, []]}}},
        ),
        "digest-gap-not-a-pair": (
            MSG_SYNC_DIGEST,
            {"watermarks": {"clients": {"c0": [5, [[1]]]}}},
        ),
        "digest-clients-not-a-mapping": (
            MSG_SYNC_DIGEST,
            {"watermarks": {"clients": [["c0", 5]]}},
        ),
        "digest-extras-not-str": (
            MSG_SYNC_DIGEST,
            {"watermarks": {"clients": {}, "extras": [7]}},
        ),
        # Well-typed but hostile: honest peers ask for at most one page
        # (256 ids) of distinct ids.
        "request-longer-than-a-page": (
            MSG_SYNC_REQUEST,
            {"txn_ids": [f"c0:{n}" for n in range(1, 258)]},
        ),
        "request-repeats-an-id": (
            MSG_SYNC_REQUEST,
            {"txn_ids": ["c0:1", "c0:1"]},
        ),
        # Well-typed but hostile: ~40 bytes that claim a million ids.
        # The pull stops at the cap and the digest is counted.
        "digest-claims-a-million-ids": (
            MSG_SYNC_DIGEST,
            {"watermarks": {"clients": {"client0": [10**6, []]}}},
        ),
    }

    @pytest.mark.parametrize("msg_type, body", CASES.values(), ids=CASES.keys())
    def test_dropped_counted_and_org_keeps_serving(self, msg_type, body):
        assert_dropped_and_org_keeps_serving(msg_type, body)

    @pytest.mark.parametrize("copies", [2, 100_000])
    def test_a_repeated_committed_id_costs_at_most_one_batch(self, copies):
        # No push gossip and no anti-entropy: every gossip batch the
        # victim sends after the votes answers the request.
        net = run_votes(build_net(gossip_interval=1e9, sync_interval=0.0))
        victim, sender = net.organizations[0], net.organizations[1]
        txn_id = next(iter(victim.ledger.valid))
        batches = []
        send = net.network.send

        def recording_send(message):
            if message.sender == victim.org_id and message.msg_type == MSG_GOSSIP:
                batches.append(message)
            send(message)

        net.network.send = recording_send
        net.network.send(
            Message(
                sender=sender.org_id,
                recipient=victim.org_id,
                msg_type=MSG_SYNC_REQUEST,
                body={"txn_ids": [txn_id] * copies},
                size_bytes=64,
            )
        )
        net.run(until=40.0)
        assert len(batches) <= 1
        assert sum(len(batch.body["transactions"]) for batch in batches) <= 1


def assert_dropped_and_org_keeps_serving(msg_type, body):
    net = build_net()
    victim, sender = net.organizations[0], net.organizations[1]
    requested = []
    send = net.network.send

    def recording_send(message):
        if message.sender == victim.org_id and message.msg_type == MSG_SYNC_REQUEST:
            requested.extend(message.body["txn_ids"])
        send(message)

    net.network.send = recording_send
    net.sim.schedule_at(
        0.1,
        net.network.send,
        Message(
            sender=sender.org_id,
            recipient=victim.org_id,
            msg_type=msg_type,
            body=body,
            size_bytes=64,
        ),
    )
    run_votes(net)
    assert victim.dropped_requests == 1
    assert victim.ledger.valid_transaction_count == 6
    assert net.converged()
    # Requests for ids no organization committed are the body's doing:
    # at most one capped pull.
    committed = frozenset().union(*committed_sets(net))
    unfounded = [txn_id for txn_id in requested if txn_id not in committed]
    assert len(unfounded) <= SYNC_PULL_PAGES * victim.perf.sync_page_txns


def proposal_wire(**fields):
    """A well-formed vote proposal body, with ``fields`` replaced."""
    wire = {
        "client_id": "c0",
        "contract_id": "voting",
        "function": "vote",
        "params": {"party": "party0", "election": "e0"},
        "clock": {"client_id": "c0", "counter": 1},
    }
    return dict(wire, **fields)


def transaction_wire(proposal=None, org_id="org1"):
    """A well-formed (if unsigned) commit body around ``proposal``."""
    return {
        "proposal": proposal or proposal_wire(),
        "write_set": [],
        "endorsements": [{"org_id": org_id, "signature": "x"}],
        "client_signature": "x",
    }


class TestMalformedProtocolBodies:
    """The same rule for the four handlers that run as processes, where
    an undecodable body used to escape as ``SimulationError`` and abort
    the whole run. An id that is not a str is undecodable: it would
    raise later, from a dict lookup inside the handler."""

    UNHASHABLE_CONTRACT = proposal_wire(contract_id=["voting"])

    CASES = {
        "gossip-empty": (MSG_GOSSIP, {}),
        "gossip-not-a-mapping": (MSG_GOSSIP, ["x"]),
        "gossip-entry-not-a-mapping": (MSG_GOSSIP, {"transactions": ["c0:1"]}),
        "gossip-entry-not-a-transaction": (MSG_GOSSIP, {"transactions": [{"write_set": []}]}),
        "commit-empty": (MSG_COMMIT, {}),
        "proposal-empty": (MSG_PROPOSAL, {}),
        "read-empty": (MSG_READ, {}),
        "proposal-contract-unhashable": (MSG_PROPOSAL, UNHASHABLE_CONTRACT),
        "read-contract-unhashable": (MSG_READ, UNHASHABLE_CONTRACT),
        "commit-contract-unhashable": (MSG_COMMIT, transaction_wire(UNHASHABLE_CONTRACT)),
        "gossip-contract-unhashable": (
            MSG_GOSSIP,
            {"transactions": [transaction_wire(UNHASHABLE_CONTRACT)]},
        ),
        "proposal-client-unhashable": (MSG_PROPOSAL, proposal_wire(client_id=["c0"])),
        "commit-endorser-unhashable": (MSG_COMMIT, transaction_wire(org_id=["org1"])),
    }

    @pytest.mark.parametrize("msg_type, body", CASES.values(), ids=CASES.keys())
    def test_dropped_counted_and_org_keeps_serving(self, msg_type, body):
        assert_dropped_and_org_keeps_serving(msg_type, body)

    def test_rest_of_a_gossip_batch_is_still_processed(self):
        # No push gossip and no anti-entropy: each vote lands only at
        # the q organizations its client chose, so some organization
        # lacks one that another holds.
        net = run_votes(build_net(gossip_interval=1e9, sync_interval=0.0))
        holder, victim, txn_id, wire = next(
            (holder, victim, txn_id, block.payload)
            for holder in net.organizations
            for victim in net.organizations
            for txn_id, block in sorted(holder.ledger.valid.items())
            if not victim.ledger.is_valid_transaction(txn_id)
        )
        net.network.send(
            Message(
                sender=holder.org_id,
                recipient=victim.org_id,
                msg_type=MSG_GOSSIP,
                body={"transactions": ["c0:1", {"write_set": []}, wire]},
                size_bytes=64,
            )
        )
        net.run(until=40.0)
        assert victim.dropped_requests == 2
        assert victim.ledger.is_valid_transaction(txn_id)


def signed_transaction_wire(net, client, write_set, counter=99):
    """A commit body around ``write_set`` that the client signed and
    ``q`` organizations endorsed: every signature checks out."""
    proposal = Proposal(
        client.client_id,
        "voting",
        "vote",
        {"party": "party0", "election": "e0"},
        OpClock(client.client_id, counter),
    )
    quorum = net.organizations[0].policy.quorum
    endorsements = [
        Endorsement.create(org.identity, proposal.proposal_id, write_set)
        for org in net.organizations[:quorum]
    ]
    return Transaction.assemble(client.identity, proposal, write_set, endorsements).to_wire()


class TestSignedButUnparsableWriteSet:
    """A write-set can carry valid client and endorser signatures and
    still not parse into operations. Every organization must reject it
    as a malformed write-set, on the commit path (an invalid block and a
    rejection receipt) and in a gossip batch (dropped). It used to
    escape ``validate_transaction`` as a ``TypeError``/``KeyError`` and
    abort the whole run."""

    WRITE_SETS = {
        "entry-not-a-mapping": [1],
        "entry-missing-keys": [{}],
        "op-index-not-a-number": [
            {
                "object_id": "voting/e0/party0",
                "path": ["mallory"],
                "value": 1,
                "value_type": "gcounter",
                "clock": {"client_id": "mallory", "counter": 99},
                "op_index": "x",
            }
        ],
        "op-index-infinite": [
            {
                "object_id": "voting/e0/party0",
                "path": ["mallory"],
                "value": 1,
                "value_type": "gcounter",
                "clock": {"client_id": "mallory", "counter": 99},
                "op_index": float("inf"),
            }
        ],
        "clock-counter-infinite": [
            {
                "object_id": "voting/e0/party0",
                "path": ["mallory"],
                "value": 1,
                "value_type": "gcounter",
                "clock": {"client_id": "m", "counter": float("inf")},
                "op_index": 0,
            }
        ],
        "not-a-list": 5,
        "vector-clock": [
            {
                "object_id": "voting/e0/party0",
                "path": ["mallory"],
                "value": True,
                "value_type": "mvregister",
                "clock": {"vector": {"mallory": 99}},
                "op_index": 0,
            }
        ],
        "orset-value-type": [
            {
                "object_id": "voting/e0/party0",
                "path": ["mallory"],
                "value": {"add": "x"},
                "value_type": "orset",
                "clock": {"client_id": "mallory", "counter": 99},
                "op_index": 0,
            }
        ],
        "map-value-not-a-key": [
            {
                "object_id": "voting/e0/party0",
                "path": ["mallory"],
                "value": 7,
                "value_type": "map",
                "clock": {"client_id": "mallory", "counter": 99},
                "op_index": 0,
            }
        ],
    }

    @pytest.mark.parametrize("write_set", WRITE_SETS.values(), ids=WRITE_SETS.keys())
    def test_validation_rejects_it(self, write_set):
        net = build_net()
        wire = signed_transaction_wire(net, net.add_client("mallory"), write_set)
        valid, reason = net.organizations[0].validate_transaction(Transaction.from_wire(wire))
        assert not valid and reason.startswith("malformed write-set"), reason

    @pytest.mark.parametrize("write_set", WRITE_SETS.values(), ids=WRITE_SETS.keys())
    def test_commit_logs_it_invalid_and_org_keeps_serving(self, write_set):
        net = build_net()
        mallory = net.add_client("mallory")
        victim = net.organizations[0]
        net.sim.schedule_at(
            0.1,
            net.network.send,
            Message(
                sender=mallory.client_id,
                recipient=victim.org_id,
                msg_type=MSG_COMMIT,
                body=signed_transaction_wire(net, mallory, write_set),
                size_bytes=64,
            ),
        )
        run_votes(net)
        ledger = victim.ledger
        assert ledger.has_transaction("mallory:99")
        assert not ledger.is_valid_transaction("mallory:99")
        assert ledger.valid_transaction_count == 6
        assert net.converged()

    @pytest.mark.parametrize("write_set", WRITE_SETS.values(), ids=WRITE_SETS.keys())
    def test_gossip_drops_it_and_org_keeps_serving(self, write_set):
        net = build_net()
        mallory = net.add_client("mallory")
        victim, sender = net.organizations[0], net.organizations[1]
        net.sim.schedule_at(
            0.1,
            net.network.send,
            Message(
                sender=sender.org_id,
                recipient=victim.org_id,
                msg_type=MSG_GOSSIP,
                body={"transactions": [signed_transaction_wire(net, mallory, write_set)]},
                size_bytes=64,
            ),
        )
        run_votes(net)
        ledger = victim.ledger
        assert not ledger.has_transaction("mallory:99")
        assert ledger.valid_transaction_count == 6
        assert net.converged()


class TestUnrenderableWriteSet:
    """A write-set nested deeper than the interpreter's recursion limit
    cannot be hashed, so its signatures cannot be checked and no block
    can log it (the block hash renders the same wire). On the commit
    path and in a gossip batch it is dropped unlogged and counted in
    ``dropped_requests``. It used to abort the run with a
    ``RecursionError``."""

    @staticmethod
    def deep_wire(net, client):
        """An honest vote wire, copied, with a 5 000-deep list as value."""
        honest = signed_transaction_wire(
            net,
            client,
            [
                {
                    "object_id": "voting/e0/party0",
                    "path": [client.client_id],
                    "value": True,
                    "value_type": "mvregister",
                    "clock": {"client_id": client.client_id, "counter": 99},
                    "op_index": 0,
                }
            ],
        )
        nested = []
        for _ in range(5_000):
            nested = [nested]
        return dict(honest, write_set=[dict(honest["write_set"][0], value=nested)])

    def run_with(self, msg_type):
        net = build_net()
        mallory = net.add_client("mallory")
        victim, sender = net.organizations[0], net.organizations[1]
        wire = self.deep_wire(net, mallory)
        sent_to_mallory = []
        send = net.network.send

        def recording_send(message):
            if message.recipient == mallory.client_id:
                sent_to_mallory.append(message)
            send(message)

        net.network.send = recording_send
        body = wire if msg_type == MSG_COMMIT else {"transactions": [wire]}
        source = mallory.client_id if msg_type == MSG_COMMIT else sender.org_id
        net.sim.schedule_at(
            0.1,
            net.network.send,
            Message(
                sender=source, recipient=victim.org_id, msg_type=msg_type, body=body, size_bytes=64
            ),
        )
        run_votes(net)
        assert victim.dropped_requests == 1
        assert not victim.ledger.has_transaction("mallory:99")
        assert victim.ledger.valid_transaction_count == 6
        # No receipt or rejection names it.
        assert not any(
            message.body.get("transaction_id") == "mallory:99" for message in sent_to_mallory
        )
        assert net.converged()

    def test_commit_drops_it_unlogged_and_counts_it(self):
        self.run_with(MSG_COMMIT)

    def test_gossip_drops_it_unlogged_and_counts_it(self):
        self.run_with(MSG_GOSSIP)


def deep_list(depth=5_000):
    nested = []
    for _ in range(depth):
        nested = [nested]
    return nested


class TestUnrenderableProposal:
    """Proposal params nested deeper than the interpreter's recursion
    limit can be neither executed nor rendered into a write-set. The
    organization drops the proposal, counts it in ``dropped_requests``
    and sends no endorsement. It used to abort the run with a
    ``RecursionError``."""

    CASES = {
        # Recurses in the contract (the election names an object id).
        "voting": (
            lambda: VotingContract(parties_per_election=2),
            "vote",
            lambda: {"party": "party0", "election": deep_list()},
        ),
        # Recurses in the contract (the CRDT type is compared).
        "synthetic": (
            SyntheticContract,
            "modify",
            lambda: {"object_indexes": [0], "ops_per_object": 1, "crdt_type": deep_list()},
        ),
        # Executes, then recurses rendering the write-set's value.
        "supply_chain": (
            SupplyChainContract,
            "transfer_custody",
            lambda: {"shipment": "s0", "holder": deep_list()},
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_dropped_and_counted_without_an_endorsement(self, name):
        factory, function, params = self.CASES[name]
        net = build_net()
        contract_id = factory().contract_id
        if contract_id != "voting":
            net.install_contract(factory)
        mallory = net.add_client("mallory")
        victim = net.organizations[0]
        sent_to_mallory = []
        send = net.network.send

        def recording_send(message):
            if message.recipient == mallory.client_id:
                sent_to_mallory.append(message)
            send(message)

        net.network.send = recording_send
        proposal = Proposal(
            mallory.client_id, contract_id, function, params(), OpClock(mallory.client_id, 99)
        )
        net.sim.schedule_at(
            0.1,
            net.network.send,
            Message(
                sender=mallory.client_id,
                recipient=victim.org_id,
                msg_type=MSG_PROPOSAL,
                body=proposal.to_wire(),
                size_bytes=64,
            ),
        )
        run_votes(net)
        assert victim.dropped_requests == 1
        assert sent_to_mallory == []
        # The honest votes around it still commit everywhere.
        assert victim.ledger.valid_transaction_count == 6
        assert net.converged()


def test_partition_heal_reconciles_through_sync():
    """Anti-entropy must repair a healed partition."""
    net = build_net(sync_interval=2.0)
    orgs = [org.org_id for org in net.organizations]
    net.sim.schedule_at(0.1, lambda: net.network.partition(set(orgs[:2]), set(orgs[2:])))
    net.sim.schedule_at(12.0, net.network.heal_partition)

    def vote(client, index, delay):
        yield net.sim.timeout(delay)
        yield net.sim.process(
            client.submit_modify(
                "voting", "vote", {"party": f"party{index % 2}", "election": "e0"}
            )
        )

    for index in range(4):
        client = net.add_client(f"c{index}")
        net.sim.process(vote(client, index, 0.5 + 2.0 * index))
    net.run(until=40.0)
    assert net.network.sent_by_type.get(MSG_SYNC_DIGEST, 0) > 0
    assert net.converged()
    assert len(committed_sets(net)) == 1
