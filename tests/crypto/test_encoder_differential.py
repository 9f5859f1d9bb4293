"""Differential test: the direct fragment renderer against the oracle.

Random nested payloads, with a random subset of their dicts wrapped as
``Wire``, must encode — on the first pass, which fills the ``Wire``
slots, and on the second, which reads them — to exactly the bytes the
reference encoder produces by way of ``json.dumps``.
"""

from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import Wire, canonical_bytes
from tests.crypto.reference_encoder import reference_bytes


class _Wired:
    """A protocol object: encoded through its ``to_wire()``."""

    def __init__(self, wire):
        self._wire = wire

    def to_wire(self):
        return self._wire


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and infinities included: json.dumps renders them too
    | st.text()
    | st.binary(max_size=8)
)
_keys = st.text(max_size=6) | st.integers(min_value=-3, max_value=3)


def _containers(children):
    dicts = st.dictionaries(_keys, children, max_size=4)
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | dicts
        | dicts.map(Wire)
        | dicts.map(_Wired)
        | dicts.map(Wire).map(_Wired)
    )


_payloads = st.recursive(_scalars, _containers, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_fragment_renderer_matches_reference_with_and_without_memo(payload):
    expected = reference_bytes(payload)
    assert canonical_bytes(payload) == expected  # fills every Wire slot
    assert canonical_bytes(payload) == expected  # served from the slots
