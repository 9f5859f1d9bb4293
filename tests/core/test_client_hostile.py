"""A client survives hostile organizations.

Malformed endorsement, receipt and read-response bodies are dropped
instead of raising out of the event loop, and a response counts only
for the organization that sent it: one organization stamping other org
ids on its bodies cannot fill a quorum alone. Every hostile message
travels through ``Network.send``, as an organization's would.
"""

import random

from repro.contracts import VotingContract
from repro.core import OrderlessChainNetwork, OrderlessChainSettings
from repro.core.client import Client
from repro.core.organization import (
    MSG_COMMIT,
    MSG_ENDORSEMENT,
    MSG_PROPOSAL,
    MSG_READ_RESPONSE,
    MSG_RECEIPT,
)
from repro.core.perf import PerfModel
from repro.core.policy import EndorsementPolicy
from repro.core.recording import TransactionRecorder
from repro.core.transaction import Endorsement, Proposal, Receipt, Transaction
from repro.crypto.identity import CertificateAuthority
from repro.net.message import Message
from repro.net.network import Network
from repro.sim import Simulator

GARBAGE = (
    {},
    None,
    "junk",
    7,
    [],
    {"proposal_id": ["unhashable"], "value": 1},
    {"org_id": "org3", "transaction_id": "voter0:1"},
)

VOTE = {"party": "party0", "election": "e0"}


def test_malformed_bodies_are_dropped_and_honest_orgs_still_commit():
    net = OrderlessChainNetwork(OrderlessChainSettings(num_orgs=4, quorum=2, seed=2))
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    client = net.add_client("voter0")

    def hostile():
        # org3 floods the client with garbage of every reply type for
        # the whole lifetime of both transactions.
        for _ in range(100):
            for msg_type in (MSG_ENDORSEMENT, MSG_RECEIPT, MSG_READ_RESPONSE):
                for body in GARBAGE:
                    net.network.send(
                        Message(sender="org3", recipient="voter0", msg_type=msg_type, body=body)
                    )
            yield net.sim.timeout(0.01)

    net.sim.process(hostile())
    modify = net.sim.process(client.submit_modify("voting", "vote", VOTE))
    read = net.sim.process(client.submit_read("voting", "read_vote_count", VOTE))
    net.run(until=10.0)
    assert modify.value is True
    assert read.value is not None
    assert len(net.recorder.successes()) == 2


def _spoofing_run(org1_endorses: bool):
    """org0 stamps its endorsements and receipts for both org0 and
    org1; the real org1 never answers a commit, and answers proposals
    only when ``org1_endorses``."""
    sim = Simulator()
    network = Network(sim, random.Random(0))
    ca = CertificateAuthority()
    recorder = TransactionRecorder()
    client = Client(
        sim,
        network,
        ca.enroll("voter0", "client", seed=b"voter0"),
        EndorsementPolicy(2, 2),
        ["org0", "org1"],
        PerfModel(),
        random.Random(0),
        recorder=recorder,
    )

    def organization(identity, hostile):
        def reply(message, msg_type, body):
            sender = identity.identifier
            network.send(
                Message(sender=sender, recipient=message.sender, msg_type=msg_type, body=body)
            )

        def handle(message):
            if message.msg_type == MSG_PROPOSAL:
                if not hostile and not org1_endorses:
                    return
                proposal_id = Proposal.from_wire(message.body).proposal_id
                endorsement = Endorsement.create(identity, proposal_id, []).to_wire()
                for org_id in ("org0", "org1") if hostile else (identity.identifier,):
                    reply(message, MSG_ENDORSEMENT, dict(endorsement, org_id=org_id))
            elif message.msg_type == MSG_COMMIT and hostile:
                txn_id = Transaction.from_wire(message.body).transaction_id
                receipt = Receipt.create(identity, txn_id, "head", True).to_wire()
                for org_id in ("org0", "org1"):
                    reply(message, MSG_RECEIPT, dict(receipt, org_id=org_id))

        return handle

    network.register("org0", organization(ca.enroll("org0", "organization", seed=b"org0"), True))
    network.register("org1", organization(ca.enroll("org1", "organization", seed=b"org1"), False))
    process = sim.process(client.submit_modify("voting", "vote", VOTE))
    sim.run(until=10.0)
    return process.value, recorder.records["voter0:1"]


def test_spoofed_receipts_do_not_fill_the_commit_quorum():
    committed, record = _spoofing_run(org1_endorses=True)
    assert committed is False
    assert record.failure_reason == "commit timeout"


def test_spoofed_endorsements_do_not_fill_the_endorsement_quorum():
    committed, record = _spoofing_run(org1_endorses=False)
    assert committed is False
    assert record.failure_reason == "endorsement failure"
