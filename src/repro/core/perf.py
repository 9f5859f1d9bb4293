"""Calibrated CPU/service-time model for all five systems.

Every node in the simulation owns a CPU resource with ``vcpus`` slots
(the paper's VMs have four vCPUs); message handling occupies the CPU
for the service times below. The values are calibrated so that the
paper-scale operating points reproduce the evaluation's shapes — see
DESIGN.md's "Calibration" section; the anchor is Table 3.

``scaled(k)`` multiplies every service time by ``k``. Benchmarks divide
arrival rates and client counts by the same ``k``, which keeps all
utilizations (and therefore the qualitative shape of every figure)
unchanged while cutting the number of simulated events by ``k``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


#: Time fields that ``PerfModel.scaled`` keeps as they are.
_LATENCY_CONSTANTS = frozenset(
    {"fabric_batch_timeout", "bidl_batch_interval", "hotstuff_batch_interval", "hotstuff_delta"}
)


@dataclass(frozen=True)
class PerfModel:
    """Service times (seconds) and node parameters."""

    vcpus: int = 4

    # -- OrderlessChain organizations ----------------------------------
    endorse_base: float = 0.0010
    endorse_per_op: float = 0.00005
    commit_verify_base: float = 0.0004
    commit_verify_per_endorsement: float = 0.0001
    gossip_commit_per_txn: float = 0.00015  # batched verification, amortized
    apply_per_op: float = 0.00006  # CRDT cache apply, under the cache lock
    cache_read_base: float = 0.0002  # cache read, under the cache lock
    cache_read_per_entry: float = 0.0000002
    read_base: float = 0.0003
    dedup_check: float = 0.00002
    # Snapshot-based crash recovery (docs/RESILIENCE.md): periodic
    # checkpoint cost plus per-transaction replay of the delta between
    # the latest snapshot and the durable log on recovery.
    snapshot_base: float = 0.0005
    snapshot_per_txn: float = 0.00001
    recover_base: float = 0.0010
    recover_replay_per_txn: float = 0.00003

    # -- Fabric ----------------------------------------------------------
    fabric_endorse: float = 0.0010
    fabric_orderer_per_txn: float = 0.0017
    fabric_batch_timeout: float = 0.25
    fabric_max_batch: int = 500
    fabric_validate_per_txn: float = 0.0003  # MVCC check
    fabric_commit_per_txn: float = 0.0003

    # -- FabricCRDT --------------------------------------------------------
    fabriccrdt_merge_base: float = 0.0005
    fabriccrdt_merge_per_update: float = 0.00001
    fabriccrdt_bytes_per_update: int = 64

    # -- BIDL ---------------------------------------------------------------
    bidl_sequencer_per_txn: float = 0.00005
    bidl_leader_per_txn: float = 0.0003
    bidl_batch_interval: float = 0.10
    bidl_consensus_rounds: int = 2  # WAN round trips per batch
    bidl_execute_per_txn: float = 0.0002

    # -- Sync HotStuff ---------------------------------------------------------
    hotstuff_leader_per_txn: float = 0.00026
    hotstuff_batch_interval: float = 0.10
    hotstuff_delta: float = 0.05  # the synchrony bound Δ; commit waits 2Δ
    hotstuff_commit_per_txn: float = 0.0001

    # -- message sizes (bytes) ----------------------------------------------
    proposal_bytes: int = 300
    endorsement_base_bytes: int = 300
    per_op_bytes: int = 140
    receipt_bytes: int = 160
    read_response_bytes: int = 220
    # Anti-entropy digest / sync wire sizes (docs/PERFORMANCE.md).
    # The watermark digest ships one entry per client plus one per gap
    # range (base + per_client * clients + per_gap * gaps). Sync
    # requests list explicit ids (base + per_id each) and both they and
    # the responses are paginated at ``sync_page_txns`` per message.
    digest_base_bytes: int = 64
    digest_per_id_bytes: int = 24
    digest_per_client_bytes: int = 20
    digest_per_gap_bytes: int = 16
    gossip_txn_base_bytes: int = 400
    sync_page_txns: int = 256

    def scaled(self, factor: float) -> "PerfModel":
        """Multiply every service time by ``factor`` (sizes/counts kept)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        if factor == 1:
            return self
        # Every ``int`` field is a size or a count (``vcpus`` too), not
        # a time; field types are strings under postponed annotations.
        # Batch intervals and the synchrony bound are latency constants
        # (like the WAN delay), not service rates — scaling them would
        # distort latency floors without affecting utilization.
        updates = {
            field.name: getattr(self, field.name) * factor
            for field in dataclasses.fields(self)
            if field.type != "int" and field.name not in _LATENCY_CONSTANTS
        }
        return dataclasses.replace(self, **updates)

    def endorsement_bytes(self, op_count: int) -> int:
        return self.endorsement_base_bytes + self.per_op_bytes * op_count

    def id_list_bytes(self, id_count: int) -> int:
        """Sync-request size: an explicit id list, every id on the wire."""
        return self.digest_base_bytes + self.digest_per_id_bytes * id_count

    def watermark_digest_bytes(self, client_count: int, gap_count: int) -> int:
        """Watermark digest size: O(clients + gap ranges), not O(n)."""
        return (
            self.digest_base_bytes
            + self.digest_per_client_bytes * client_count
            + self.digest_per_gap_bytes * gap_count
        )


__all__ = ["PerfModel"]
