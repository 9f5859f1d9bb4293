"""Deterministic run fingerprints, pinned on protocol state.

A fingerprint hashes (``repro.crypto.hashing``) each node's
``state_snapshot()`` — what the protocol promises, not block bytes,
commit order or CRDT metadata — and the transaction-record counts. Two
runs with the same seed and fault schedule fingerprint alike; the
golden-seed tests pin the string. No latency or derived float enters
it, so it is stable across platforms.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.crypto.hashing import sha256_hex


def state_fingerprints(net: Any, node_ids: Optional[Iterable[str]] = None) -> Dict[str, str]:
    """node id -> sha256 of its ``state_snapshot()`` (every node by default)."""
    return {
        node_id: sha256_hex(net.node(node_id).state_snapshot())
        for node_id in (net.node_ids if node_ids is None else node_ids)
    }


def run_fingerprint(net: Any) -> str:
    """One hex digest pinning a run's observable outcome."""
    records = net.recorder.records.values()
    return sha256_hex(
        {
            "system": net.system,
            "state": state_fingerprints(net),
            "records": {
                "submitted": len(records),
                "committed": sum(1 for r in records if r.committed_at is not None),
                "failed": sum(1 for r in records if r.failed_at is not None),
                "retries": sum(r.retries for r in records),
            },
        }
    )


__all__ = ["run_fingerprint", "state_fingerprints"]
