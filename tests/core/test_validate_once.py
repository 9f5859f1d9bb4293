"""Validate once: the verdict rides on the shared transaction object.

``Organization.validate_transaction`` memoizes its verdict on the
transaction under ``(ca, ca.epoch, policy)``. Differential: at every
organization, whatever the memo returns must equal a fresh validation
of a plain-copy decode (a new object, which no memo can reach) — across
a revocation and an enrolment between two organizations' validations,
a second network's organization, a stricter policy and a tampered copy.
A write-set nested past the recursion limit is never memoized, so every
organization drops and counts it. The planted ``quorum`` bug wraps the
memoized method and still takes effect, and only while it is planted.
"""

import json
from collections import Counter

import pytest

from repro.bench.config import ExperimentConfig
from repro.contracts import VotingContract
from repro.core import OrderlessChainNetwork
from repro.core.organization import MSG_COMMIT
from repro.core.policy import EndorsementPolicy
from repro.core.transaction import Endorsement, Proposal, Transaction
from repro.crdt.clock import OpClock
from repro.crdt.operation import Operation
from repro.crypto.hashing import Wire
from repro.crypto.identity import CertificateAuthority
from repro.explore import planted
from repro.net.message import Message

NUM_ORGS = 4
QUORUM = 2


def build_net(seed=1):
    config = ExperimentConfig(num_orgs=NUM_ORGS, quorum=QUORUM, seed=seed, scale=1)
    net = OrderlessChainNetwork(config)
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    return net


def vote_write_set(client_name, value=True):
    clock = OpClock(client_name, 1)
    return [Operation("voting/e/party0", (client_name,), value, "mvregister", clock).to_wire()]


def make_transaction(net, client_name, endorsers=None, write_set=None, endorsed_write_set=None):
    """A vote by a newly enrolled client, endorsed by ``endorsers``
    (default: the first ``QUORUM`` organizations) over its write-set,
    or over ``endorsed_write_set`` when the client swapped it."""
    client = net.ca.enroll(client_name, "client", seed=client_name.encode())
    proposal = Proposal(
        client_name, "voting", "vote", {"party": "party0", "election": "e"}, OpClock(client_name, 1)
    )
    write_set = write_set if write_set is not None else vote_write_set(client_name)
    if endorsers is None:
        endorsers = net.organizations[:QUORUM]
    endorsed = write_set if endorsed_write_set is None else endorsed_write_set
    endorsements = [
        Endorsement.create(org.identity, proposal.proposal_id, endorsed) for org in endorsers
    ]
    return Transaction.assemble(client, proposal, write_set, endorsements)


def fresh_copy(transaction):
    """The transaction decoded from a plain JSON copy of its wire: a new
    object that shares no memo with ``transaction``."""
    return Transaction.from_wire(json.loads(json.dumps(transaction.to_wire())))


def assert_memo_agrees(org, transaction):
    """``org``'s verdict on the shared object equals its verdict on a
    fresh decode; returns it."""
    verdict = org.validate_transaction(transaction)
    assert verdict == org.validate_transaction(fresh_copy(transaction))
    return verdict


@pytest.fixture
def verify_calls(monkeypatch):
    calls = Counter()
    verify = CertificateAuthority.verify

    def counting(self, identifier, payload, signature):
        calls[identifier] += 1
        return verify(self, identifier, payload, signature)

    monkeypatch.setattr(CertificateAuthority, "verify", counting)
    return calls


TRANSACTIONS = {
    "valid": lambda net: make_transaction(net, "cv"),
    "one-endorser": lambda net: make_transaction(net, "c1", endorsers=net.organizations[:1]),
    "one-endorser-twice": lambda net: make_transaction(
        net, "c2", endorsers=net.organizations[:1] * 2
    ),
    "write-set-swapped": lambda net: make_transaction(
        net, "c3", endorsed_write_set=vote_write_set("c3", value=False)
    ),
    "malformed-write-set": lambda net: make_transaction(net, "c4", write_set=[1]),
}


@pytest.mark.parametrize("build", TRANSACTIONS.values(), ids=TRANSACTIONS.keys())
def test_every_organization_reads_the_verdict_a_fresh_validation_reaches(build, verify_calls):
    net = build_net()
    transaction = build(net)
    verdicts = []
    for org in net.organizations:
        verify_calls.clear()
        verdicts.append(org.validate_transaction(transaction))
        # The first organization checks; the others read its verdict.
        assert bool(verify_calls) == (org is net.organizations[0])
    for org, verdict in zip(net.organizations, verdicts):
        assert verdict == assert_memo_agrees(org, transaction)
    assert len(set(verdicts)) == 1


def test_a_revocation_between_two_validations_is_seen_by_the_second():
    net = build_net()
    transaction = make_transaction(net, "mallory")
    first, second = net.organizations[:2]
    assert assert_memo_agrees(first, transaction) == (True, "")
    net.ca.revoke("mallory")
    valid, reason = assert_memo_agrees(second, transaction)
    assert not valid and "revoked" in reason
    # The first organization reads the new verdict too.
    assert assert_memo_agrees(first, transaction) == (valid, reason)


def test_an_enrolment_bumps_the_epoch_and_the_verdict_holds(verify_calls):
    net = build_net()
    transaction = make_transaction(net, "carol")
    first, second = net.organizations[:2]
    assert first.validate_transaction(transaction) == (True, "")
    epoch = net.ca.epoch
    net.ca.enroll("newcomer", "client")
    assert net.ca.epoch == epoch + 1
    verify_calls.clear()
    assert second.validate_transaction(transaction) == (True, "")
    # Checked afresh under the new epoch: the client and both
    # endorsers were verified again.
    assert verify_calls == {"carol": 1, "org0": 1, "org1": 1}
    assert assert_memo_agrees(second, transaction) == (True, "")


def test_an_organization_of_another_network_validates_against_its_own_ca():
    ours, theirs = build_net(seed=1), build_net(seed=2)
    transaction = make_transaction(ours, "dave")
    # The other network never enrolled the client; at the same epoch,
    # only the CA tells the two verdicts apart.
    theirs.ca.enroll("eve", "client")
    assert theirs.ca.epoch == ours.ca.epoch
    for org in (ours.organizations[0], theirs.organizations[0], ours.organizations[1]):
        verdict = assert_memo_agrees(org, transaction)
        assert verdict[0] == (org in ours.organizations)


def test_a_stricter_policy_reaches_its_own_verdict():
    net = build_net()
    transaction = make_transaction(net, "erin")
    strict = net.organizations[1]
    strict.policy = EndorsementPolicy(QUORUM + 1, NUM_ORGS)
    for org in net.organizations:
        valid, reason = assert_memo_agrees(org, transaction)
        assert valid == (org is not strict)
        if org is strict:
            assert reason.startswith("endorsement policy")


def test_a_tampered_copy_is_validated_afresh():
    net = build_net()
    honest = Transaction.from_wire(Wire(make_transaction(net, "frank").to_wire()))
    wire = honest.to_wire()
    tampered = Transaction.from_wire(dict(wire, write_set=vote_write_set("frank", value=False)))
    assert tampered is not honest
    for org in net.organizations:
        assert assert_memo_agrees(org, honest) == (True, "")
        valid, _ = assert_memo_agrees(org, tampered)
        assert not valid
    assert Transaction.from_wire(wire) is honest


def test_a_write_set_nested_too_deep_is_dropped_and_counted_at_every_organization():
    net = build_net()
    nested = []
    for _ in range(5_000):
        nested = [nested]
    honest = make_transaction(net, "mallory").to_wire()
    # One shared Wire, so every organization decodes the same object.
    wire = Wire(dict(honest, write_set=[dict(honest["write_set"][0], value=nested)]))
    for org in net.organizations:
        net.network.send(
            Message(sender="mallory", recipient=org.org_id, msg_type=MSG_COMMIT, body=wire)
        )
    net.run(until=5.0)
    # The organizations shared one decoded object; no verdict rides on it.
    assert "_verdict_cache" not in vars(Transaction.from_wire(wire))
    for org in net.organizations:
        assert org.dropped_requests == 1
        assert not org.ledger.has_transaction("mallory:1")


def test_planted_quorum_bug_takes_effect_only_while_planted():
    net = build_net()
    # One organization's endorsement, twice: one distinct endorser.
    transaction = make_transaction(net, "grace", endorsers=net.organizations[:1] * 2)
    with planted("quorum"):
        for org in net.organizations:
            assert org.validate_transaction(transaction) == (True, "")
    for org in net.organizations:
        valid, reason = assert_memo_agrees(org, transaction)
        assert not valid and reason.startswith("endorsement policy")
