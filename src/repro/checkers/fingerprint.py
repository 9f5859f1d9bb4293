"""Deterministic run fingerprints.

A fingerprint hashes, through the repo's canonical byte encoding
(``repro.crypto.hashing``), everything a run's outcome consists of:
each node's application-state snapshot, each hash-chain ledger head,
and the transaction-record counts. Two runs with the same seed and
the same fault schedule must produce the same fingerprint — the golden
-seed regression tests and the chaos determinism tests pin exactly
this string.

Only structural values (ints, strings, canonical snapshots) go into
the hash — never latencies or other derived floats, so fingerprints
are stable across Python versions and platforms.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.crypto.hashing import sha256_hex


def state_fingerprints(net: Any) -> Dict[str, str]:
    """node id -> sha256 of its canonical application-state snapshot."""
    return {
        node_id: sha256_hex(net.node(node_id).state_snapshot()) for node_id in net.node_ids
    }


def run_fingerprint(net: Any) -> str:
    """One hex digest pinning a run's observable outcome."""
    records = net.recorder.records
    material = {
        "system": net.system,
        "state": state_fingerprints(net),
        "ledger_heads": {
            node_id: ledger.log.head_hash for node_id, ledger in sorted(net.ledgers().items())
        },
        "records": {
            "submitted": len(records),
            "committed": sum(1 for r in records.values() if r.committed_at is not None),
            "failed": sum(1 for r in records.values() if r.failed_at is not None),
            "retries": sum(r.retries for r in records.values()),
        },
    }
    return sha256_hex(material)


__all__ = ["run_fingerprint", "state_fingerprints"]
