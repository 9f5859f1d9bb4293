"""Reference canonical encoder for the differential tests — not product code.

This is the two-step encoder ``repro.crypto.hashing`` started from:
convert the payload to plain JSON-encodable structures, then let
``json.dumps`` sort and render them. ``hashing.canonical_fragment`` renders the
same bytes directly (and memoizes them on ``Wire`` nodes); it stays
here as the oracle ``test_encoder_differential.py`` and
``test_caches.py`` hold it to.
"""

from __future__ import annotations

import json
from typing import Any


def reference_encode(value: Any) -> Any:
    """Convert ``value`` into JSON-encodable canonical form.

    Key order need not be normalized here: ``json.dumps`` sorts.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(key): reference_encode(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_encode(item) for item in value]
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if hasattr(value, "to_wire"):
        return reference_encode(value.to_wire())
    raise TypeError(f"cannot canonically encode {type(value).__name__}")


def reference_bytes(value: Any) -> bytes:
    """The canonical bytes of ``value``, by way of ``json.dumps``."""
    return json.dumps(reference_encode(value), sort_keys=True, separators=(",", ":")).encode()
