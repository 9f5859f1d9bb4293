"""Differential test: the one-pass record renderers against the oracle.

``Operation.to_wire`` renders its ``Wire``'s fragment straight from the
typed fields and ``Block.block_hash`` renders its header around the
payload's fragment. Both must produce exactly the bytes the reference
encoder produces for the same wire form — for the shape the endorsement
phase emits (exact ``str``/``int``/``bool`` fields, an ``OpClock``) and
for every other shape: subclasses, non-``str`` path parts,
non-``int`` clock counters, non-``int`` heights and non-``bool``
validity.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.crdt.clock import OpClock
from repro.crdt.operation import TYPE_GCOUNTER, TYPE_MAP, TYPE_MVREGISTER, Operation
from repro.crypto.hashing import Wire, canonical_bytes, sha256_hex
from repro.ledger.block import Block
from tests.crypto.reference_encoder import reference_bytes
from tests.crypto.test_encoder_differential import _payloads


class _Str(str):
    """A str subclass: renders like a str, but is not the exact type."""


class _Int(int):
    """An int subclass: renders like an int, but is not the exact type."""


_texts = st.text(max_size=6) | st.sampled_from(["é", "日本", "\n\"\\", "\x00", "😀"])
_maybe_str = _texts | _texts.map(_Str)
_path_parts = _texts | _texts.map(_Str) | st.integers(-3, 3)
_op_clocks = st.builds(
    OpClock,
    _texts | _texts.map(_Str),
    st.integers() | st.booleans() | st.integers().map(_Int),
)
_values = (
    _payloads
    | st.floats()
    | st.binary(max_size=6)
    | st.tuples(st.integers(), _texts)
    | st.dictionaries(_texts, st.dictionaries(_texts, st.integers(), max_size=2), max_size=2)
)
_counter_values = st.integers(min_value=0) | st.floats(min_value=0, allow_nan=False)


_typed_clocks = st.builds(OpClock, _texts, st.integers())


@st.composite
def _operations(draw):
    value_type = draw(st.sampled_from([TYPE_GCOUNTER, TYPE_MVREGISTER, TYPE_MAP]))
    value = draw(
        {TYPE_GCOUNTER: _counter_values, TYPE_MAP: _maybe_str}.get(value_type, _values)
    )
    if draw(st.booleans()):  # the shape the endorsement phase emits
        fields = (_texts, _texts, _typed_clocks, st.integers(0, 50))
    else:  # any shape
        fields = (
            _maybe_str,
            _path_parts,
            _op_clocks,
            st.integers(0, 50) | st.booleans() | st.integers(0, 5).map(_Int),
        )
    object_id, part, clock, op_index = fields
    return Operation(
        object_id=draw(object_id),
        path=tuple(draw(st.lists(part, max_size=3))),
        value=value,
        value_type=value_type,
        clock=draw(clock),
        op_index=draw(op_index),
    )


@settings(max_examples=300, deadline=None)
@given(_operations())
def test_operation_fragment_matches_reference(operation):
    wire = operation.to_wire()
    assert hasattr(wire, "fragment")  # to_wire fills the slot for every shape
    assert canonical_bytes(wire) == reference_bytes(dict(wire))


@settings(max_examples=100, deadline=None)
@given(_operations(), st.booleans())
def test_peer_decoded_operation_rerenders_to_the_same_bytes(operation, as_wire):
    # A peer's dict (non-str path parts included) decodes to an
    # operation whose to_wire is that dict; its fields built into a
    # fresh operation render as the oracle does.
    peer = dict(operation.to_wire())
    peer = Wire(peer) if as_wire else peer
    decoded = Operation.from_wire(peer)
    assert decoded.to_wire() is peer
    assert canonical_bytes(peer) == reference_bytes(peer)
    fresh = Operation(
        decoded.object_id,
        decoded.path,
        decoded.value,
        decoded.value_type,
        decoded.clock,
        decoded.op_index,
    )
    wire = fresh.to_wire()
    assert canonical_bytes(wire) == reference_bytes(dict(wire))


_heights = st.integers(0, 10**6) | st.booleans() | st.floats(allow_nan=False) | _texts
_previous = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64) | _maybe_str | st.none()
_valid = st.booleans() | st.integers(0, 1) | st.none()


@st.composite
def _block_payloads(draw):
    if draw(st.booleans()):
        return draw(_payloads)
    # Transaction-shaped: a Wire around a write-set of operation wires,
    # some of them already rendered (memoized) and some not.
    write_set = [op.to_wire() for op in draw(st.lists(_operations(), max_size=3))]
    if draw(st.booleans()):
        canonical_bytes(write_set)
    return Wire({"write_set": write_set, "client_signature": draw(_texts)})


@settings(max_examples=300, deadline=None)
@given(_heights, _previous, _block_payloads(), _valid)
def test_block_hash_matches_reference(height, previous_hash, payload, valid):
    block = Block(height=height, previous_hash=previous_hash, payload=payload, valid=valid)
    expected = hashlib.sha256(reference_bytes(block.to_wire())).hexdigest()
    assert block.block_hash == expected == sha256_hex(block.to_wire())
