"""Blocks of the append-only hash-chain log.

"For appending the transaction to the log, the organization creates a
block ``Block_h : <TS_i, Hash(Block_{h-1})>``, which contains the
transaction and the hash of the last block in the log" (Section 4).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict

from repro.crypto.hashing import canonical_fragment, count_rendered


@dataclass(frozen=True)
class Block:
    """One block: a payload chained to its predecessor's hash."""

    height: int
    previous_hash: str
    payload: Any  # a transaction in wire form (plain structures)
    valid: bool

    @property
    def block_hash(self) -> str:
        """Hash of this block (covers height, predecessor, payload, validity).

        Cached after the first computation: blocks are immutable, and
        the chain recomputes predecessors' hashes on every append.
        (``tamper`` replaces the whole Block object, so a stale cache
        cannot mask tampering.)
        """
        cached = self.__dict__.get("_hash_cache")
        if cached is None:
            # The header rendered in one pass around the payload's
            # (usually memoized) fragment: the bytes of to_wire().
            header = (
                f'{{"height":{canonical_fragment(self.height)},'
                f'"payload":{canonical_fragment(self.payload)},'
                f'"previous_hash":{canonical_fragment(self.previous_hash)},'
                f'"valid":{canonical_fragment(self.valid)}}}'
            )
            count_rendered(1)  # the header
            cached = hashlib.sha256(header.encode()).hexdigest()
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    def to_wire(self) -> Dict[str, Any]:
        return {
            "height": self.height,
            "previous_hash": self.previous_hash,
            "payload": self.payload,
            "valid": self.valid,
        }


__all__ = ["Block"]
