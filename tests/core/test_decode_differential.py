"""Differential test: the decode-once memo against decoding afresh.

Random operations, proposals, endorsements and transactions are decoded
from their ``Wire`` (which fills its ``decoded`` slot), from it again
(which reads the slot) and from a deep plain copy (which never touches
a slot). All three must be the same value — field by field, byte for
byte on the way back out, digest and parsed operations included — and
only the second may be the same *object* as the first.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.transaction import Endorsement, Proposal, Transaction, write_set_digest
from repro.crdt.clock import OpClock
from repro.crdt.operation import TYPE_GCOUNTER, TYPE_MAP, TYPE_MVREGISTER, Operation
from repro.crypto.hashing import Wire, canonical_bytes

DECODERS = (Operation, Proposal, Endorsement, Transaction)

_ids = st.text(alphabet="abcxyz019/:#", min_size=1, max_size=6)
_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_ids, children, max_size=3),
    max_leaves=8,
)
_op_clocks = st.builds(OpClock, _ids, st.integers(0, 10_000))
_paths = st.lists(_ids, max_size=3).map(tuple)
_operations = (
    st.builds(
        Operation,
        _ids,
        _paths,
        st.integers(0, 10**6),
        st.just(TYPE_GCOUNTER),
        _op_clocks,
        st.integers(0, 7),
    )
    | st.builds(
        Operation,
        _ids,
        _paths,
        _values,  # None included: a delete
        st.just(TYPE_MVREGISTER),
        _op_clocks,
        st.integers(0, 7),
    )
    | st.builds(Operation, _ids, _paths, _ids, st.just(TYPE_MAP), _op_clocks, st.integers(0, 7))
)
_write_sets = st.lists(_operations, max_size=4).map(lambda ops: [op.to_wire() for op in ops])
_proposals = st.builds(
    Proposal, _ids, _ids, _ids, st.dictionaries(_ids, _values, max_size=3), _op_clocks
)
_endorsements = st.builds(Endorsement, _ids, _ids, _write_sets, _ids)


@st.composite
def _transactions(draw):
    """A transaction whose endorsements are over its own proposal and
    write-set, as every assembled transaction's are."""
    proposal, write_set = draw(_proposals), draw(_write_sets)
    signers = draw(st.lists(st.tuples(_ids, _ids), max_size=3))
    endorsements = tuple(
        Endorsement(org_id, proposal.proposal_id, write_set, signature)
        for org_id, signature in signers
    )
    return Transaction(proposal, write_set, endorsements, draw(_ids))


def _decoded_three_ways(cls, source):
    wire = source.to_wire()
    assert type(wire) is Wire
    first = cls.from_wire(wire)
    assert first is not source  # to_wire() never fills the slot
    assert cls.from_wire(wire) is first
    plain = copy.deepcopy(wire)  # a plain tree, by Wire.__reduce__
    assert type(plain) is dict
    fresh = cls.from_wire(plain)
    assert fresh is not first
    assert cls.from_wire(plain) is not fresh  # a plain mapping is never memoized
    for decoded in (first, fresh):
        assert type(decoded) is cls
        assert decoded == source  # dataclass equality: field by field
        assert canonical_bytes(decoded.to_wire()) == canonical_bytes(wire)
    # No other decoder is ever handed this class's memo.
    for other in DECODERS:
        if other is not cls:
            with pytest.raises(KeyError):
                other.from_wire(wire)
    assert cls.from_wire(wire) is first
    return wire, first, fresh


@settings(max_examples=150, deadline=None)
@given(_operations)
def test_operation(source):
    _decoded_three_ways(Operation, source)


@settings(max_examples=100, deadline=None)
@given(_proposals)
def test_proposal(source):
    _decoded_three_ways(Proposal, source)


@settings(max_examples=100, deadline=None)
@given(_endorsements)
def test_endorsement(source):
    _decoded_three_ways(Endorsement, source)


@settings(max_examples=100, deadline=None)
@given(_transactions())
def test_transaction(source):
    wire, first, fresh = _decoded_three_ways(Transaction, source)
    assert first.digest() == fresh.digest() == write_set_digest(source.write_set)
    assert first.operations() == fresh.operations() == source.operations()
    assert first.signed_payloads() == fresh.signed_payloads()
    # The write-set travels once: an endorsement entry is its signer
    # and signature, and every decoded endorsement is over the
    # decoded transaction's own proposal and write-set list.
    assert wire["endorsements"] == [
        {"org_id": e.org_id, "signature": e.signature} for e in source.endorsements
    ]
    for decoded in (first, fresh):
        for endorsement in decoded.endorsements:
            assert endorsement.write_set is decoded.write_set
            assert endorsement.proposal_id == decoded.transaction_id
    # The nested wires share their memo with the envelope's decode ...
    assert first.proposal is Proposal.from_wire(wire["proposal"])
    assert first.write_set is wire["write_set"]
    for operation, nested in zip(first.operations(), wire["write_set"]):
        assert operation is Operation.from_wire(nested)
    # ... and the plain copy shares nothing with it.
    assert fresh.proposal is not first.proposal
    assert all(a is not b for a, b in zip(fresh.endorsements, first.endorsements))
    assert all(a is not b for a, b in zip(fresh.operations(), first.operations()))


@settings(max_examples=50, deadline=None)
@given(_proposals, _endorsements)
def test_a_wire_asked_for_another_class_never_returns_the_memoized_one(proposal, endorsement):
    # A wire that happens to decode as two classes: each asker gets its
    # own class, whatever the slot held when it asked.
    wire = Wire({**proposal.to_wire(), **endorsement.to_wire()})
    for cls, source in ((Proposal, proposal), (Endorsement, endorsement)) * 2:
        decoded = cls.from_wire(wire)
        assert type(decoded) is cls and decoded == source
