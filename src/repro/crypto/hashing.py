"""Canonical hashing of structured payloads.

All signatures and hash-chain links in the system hash a *canonical*
byte encoding of the payload, so that two nodes computing the hash of
the same logical content always agree. The encoding is deterministic
JSON (sorted keys, no whitespace) with a small extension for bytes and
tuples, which covers every message type in the protocol.

Encode once
-----------

Serialization dominates the simulator's hot path: one transaction's
wire form is serialized for the client signature, for every endorsement
signature, at every organization that validates the transaction, and
again for every block hash that embeds it. The whole simulation shares
one process and messages travel by reference, so the memo lives on the
payload itself: :class:`Wire` is a ``dict`` with one slot holding its
canonical fragment, filled the first time :func:`canonical_bytes` walks
it. The protocol's shared wire roots — ``to_wire()`` of operation
clocks, operations, proposals, endorsements and transactions, and the
signed payloads — are built as ``Wire``; the memo lives and dies with
the object it describes, so there is no table, no size and no eviction.

Plain ``dict``/``list``/``tuple`` nodes are rendered on every call and
never cached: they are either short-lived wrappers (``{"write_set":
...}``) around ``Wire`` nodes that do the real work, or payloads parsed
from JSON that nobody else holds.

A ``Wire`` refuses in-place mutation (``TypeError``), which is what
makes the memo safe; every tamper path copies first (``dict(wire)``),
and any copy — ``dict()``, ``{**w}``, ``copy``/``deepcopy``, pickle —
is a plain ``dict`` that renders afresh. The lists and plain dicts
nested *inside* a ``Wire`` (a path, a write-set list, contract
parameters) stay immutable by convention, as they always were.

One-pass records
----------------

A record whose wire form has a fixed set of ``str`` keys may render its
fragment in one pass from its fields instead of building the dict and
walking it: ``Operation.to_wire`` fills its ``Wire``'s slot that way,
and ``Block.block_hash`` renders its header around the payload's
fragment. For such a dict the walk is exactly ``{`` + the sorted
``"key":fragment`` pairs + ``}``, so a renderer that writes its keys in
sorted order and each field through :func:`canonical_fragment` produces
the walk's bytes for every field type. Renderers book the container
nodes they cover with :func:`count_rendered`, so
``hashing_cache_info()["misses"]`` counts the same nodes either way.

Decode once
-----------

The receiving side has the same shape — all ``n`` organizations are
handed the same ``Wire`` by reference — so a ``Wire`` has a second
slot, ``decoded``: the object ``from_wire`` built from it.
:func:`decode_once` is the one idiom that reads and fills it: an
exact-type ``Wire`` whose slot holds an instance of the asked-for class
returns it; any other mapping (plain ``dict``, parsed JSON, a
``dict(wire)`` tamper copy) runs the same decoding body and is never
memoized. Only ``from_wire`` fills the slot, never ``to_wire``, so the
shared object is a pure function of the wire's content, and the memos
it carries (digest, parsed operations, signed payloads) are computed
once network-wide. Validation, verification, apply and commit still run
at every organization; only the parse is shared.

Copies carry no decoded object for the reason they carry no fragment,
and audit paths (the policy-safety oracle, ``Ledger.state_snapshot``)
decode a plain copy on purpose, so they never read a memo — which
matters because of the convention above: a list edited in place inside
a ``Wire`` is as invisible to the decoded object as to the fragment.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _escape_str
from typing import Any, Callable, Dict, Mapping

GENESIS_HASH = "0" * 64
"""The hash-chain predecessor of the first block."""

_scalar_dumps = json.dumps

_cache_hits = 0
_cache_misses = 0


class Wire(dict):
    """An immutable wire-form dict that memoizes its canonical fragment and decoded object."""

    __slots__ = ("fragment", "decoded")

    def _immutable(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("Wire payloads are immutable; edit a dict(wire) copy instead")

    __setitem__ = __delitem__ = __ior__ = _immutable
    update = pop = popitem = setdefault = clear = _immutable

    def __reduce__(self) -> tuple:
        # copy, deepcopy and pickle all come through here: the copy is
        # a plain dict, free to be edited and carrying neither memo.
        return dict, (dict(self),)


def decode_once(decode: Callable[[Any, Mapping[str, Any]], Any]) -> classmethod:
    """Make ``decode(cls, wire)`` a ``from_wire`` classmethod that runs
    once per :class:`Wire`: the result rides in the wire's ``decoded``
    slot. Any other mapping is decoded by the same body, unmemoized."""

    def from_wire(cls: type, wire: Mapping[str, Any]) -> Any:
        if wire.__class__ is not Wire:
            return decode(cls, wire)
        decoded = getattr(wire, "decoded", None)
        if decoded.__class__ is not cls:
            decoded = wire.decoded = decode(cls, wire)
        return decoded

    return classmethod(from_wire)


def canonical_fragment(value: Any) -> str:
    """Canonical JSON fragment of ``value`` (memoized on :class:`Wire`).

    Byte-identical to ``json.dumps(reference_encode(value),
    sort_keys=True, separators=(",", ":"))`` — the oracle lives in
    tests/crypto/reference_encoder.py.
    """
    global _cache_hits, _cache_misses
    # Exact-type scalar fast paths (the bulk of all calls) render
    # without json.dumps; each is byte-identical to what dumps emits.
    # Scalar subclasses and floats (repr subtleties, NaN/Infinity)
    # fall through to json.dumps itself.
    cls = value.__class__
    if cls is str:
        return _escape_str(value)
    if cls is bool:
        return "true" if value else "false"
    if cls is int:
        return repr(value)
    if value is None:
        return "null"
    if isinstance(value, (str, int, float)):
        return _scalar_dumps(value)
    if isinstance(value, dict):
        if cls is Wire:
            try:
                fragment = value.fragment
            except AttributeError:  # slot still empty: first rendering
                pass
            else:
                _cache_hits += 1
                return fragment
        _cache_misses += 1
        # str(key) first (duplicates collapse, last one wins), then
        # sort. All-str keys — the wire convention — skip that pass.
        if all(type(k) is str for k in value):
            normalized = value
        else:
            normalized = {str(k): v for k, v in value.items()}
        fragment = (
            "{"
            + ",".join(
                f"{_escape_str(k)}:{canonical_fragment(v)}"
                for k, v in sorted(normalized.items(), key=lambda kv: kv[0])
            )
            + "}"
        )
        if cls is Wire:
            value.fragment = fragment
        return fragment
    if isinstance(value, (list, tuple)):
        _cache_misses += 1
        return "[" + ",".join(canonical_fragment(item) for item in value) + "]"
    if isinstance(value, bytes):
        return '{"__bytes__":' + _scalar_dumps(value.hex()) + "}"
    if hasattr(value, "to_wire"):
        return canonical_fragment(value.to_wire())
    raise TypeError(f"cannot canonically encode {type(value).__name__}")


def canonical_bytes(value: Any) -> bytes:
    """Deterministic byte encoding of ``value``."""
    return canonical_fragment(value).encode()


def sha256_hex(value: Any) -> str:
    """Hex SHA-256 of the canonical encoding of ``value``."""
    return hashlib.sha256(canonical_bytes(value)).hexdigest()


def chain_hash(previous_hash: str, payload: Any) -> str:
    """Hash-chain link: hash of (previous hash, payload)."""
    return sha256_hex({"prev": previous_hash, "payload": payload})


def count_rendered(nodes: int) -> None:
    """Book ``nodes`` container nodes rendered by a one-pass record
    renderer (what the generic walk would have counted for them)."""
    global _cache_misses
    _cache_misses += nodes


def hashing_cache_info() -> Dict[str, int]:
    """Encode-once counters: ``hits`` are :class:`Wire` fragments served
    from their slot, ``misses`` are container nodes rendered."""
    return {"hits": _cache_hits, "misses": _cache_misses}


def hashing_cache_clear() -> None:
    """Reset the counters (fragments live on their ``Wire``, not here)."""
    global _cache_hits, _cache_misses
    _cache_hits = 0
    _cache_misses = 0


__all__ = [
    "GENESIS_HASH",
    "Wire",
    "canonical_bytes",
    "canonical_fragment",
    "count_rendered",
    "decode_once",
    "sha256_hex",
    "chain_hash",
    "hashing_cache_clear",
    "hashing_cache_info",
]
