"""Experiment configuration.

One :class:`ExperimentConfig` describes a single run of one system on
one application at one operating point — the unit every figure sweeps
over. The defaults are the paper's defaults (Table 2); ``scale``
applies the utilization-preserving scale-down described in DESIGN.md.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.core.byzantine import VALID_CLIENT_FAULTS
from repro.core.perf import PerfModel
from repro.crdt.operation import TYPE_GCOUNTER, TYPE_MAP, TYPE_MVREGISTER
from repro.errors import ConfigError
from repro.faults.schedule import FaultSchedule
from repro.sim.nondeterminism import ExploreProfile

SYSTEMS = ("orderlesschain", "fabric", "fabriccrdt", "bidl", "synchotstuff")
APPS = ("synthetic", "voting", "auction")
# The CRDT types the synthetic contract's ``modify`` writes.
SYNTHETIC_CRDT_TYPES = (TYPE_GCOUNTER, TYPE_MVREGISTER, TYPE_MAP)
# Fields only OrderlessChain reads: set away from its default on a
# baseline, such a field is an error, not a no-op.
ORDERLESSCHAIN_FIELDS = (
    "channels", "byzantine_client_fraction", "byzantine_org_windows", "max_retries",
    "avoid_byzantine", "org_weights", "resilience", "snapshot_interval",
    "gossip_interval", "gossip_fanout", "gossip_ttl", "sync_interval",
)


def default_scale() -> float:
    """Benchmark scale factor; ``REPRO_BENCH_SCALE=1`` is paper scale."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "20"))


@dataclass(frozen=True)
class ByzantineWindow:
    """Organizations ``count`` behave Byzantine during [start, end)."""

    count: int
    start: float
    end: Optional[float]


@dataclass(frozen=True)
class ChannelSpec:
    """One channel in a multi-application deployment.

    ``app`` is the application (contract + workload generator) the
    channel runs; ``rate_share`` is the channel's relative share of the
    config's total ``arrival_rate`` (shares are normalized across all
    channels, so equal shares split the load evenly). Channels are an
    OrderlessChain feature (repro.core.contract): a channel scopes its
    contract's id and object ids inside each organization's one ledger.
    """

    channel_id: str
    app: str = "synthetic"
    rate_share: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines one experiment run."""

    system: str = "orderlesschain"
    app: str = "synthetic"
    # Workload (paper-scale numbers; divided by `scale` at run time).
    arrival_rate: float = 3000.0  # tps, total across all clients
    num_clients: int = 1000
    duration: float = 180.0
    modify_ratio: float = 0.5  # Table 2's R50M50 default
    # Topology / trust.
    num_orgs: int = 16
    quorum: int = 4
    # Synthetic-application control variables (Table 2, rows 4-6).
    obj_count: int = 1
    ops_per_obj: int = 1
    crdt_type: str = "gcounter"
    object_pool: int = 64
    # Voting / auction parameters (Section 9).
    elections: int = 8
    parties: int = 8
    auctions: int = 8
    # OrderlessChain knobs.
    gossip_interval: float = 1.0
    gossip_fanout: int = 1
    gossip_ttl: int = 3
    # Anti-entropy: a periodic digest exchange with a random peer, so
    # replicas reconcile even after push-gossip rounds are spent (e.g.
    # across a healed partition). 0 disables it.
    sync_interval: float = 5.0
    max_retries: int = 0
    avoid_byzantine: bool = False
    # Adaptive resilience layer (docs/RESILIENCE.md): RTT-aware
    # timeouts, hedged solicitation, per-org circuit breakers. Off by
    # default (the paper's fixed-timeout client).
    resilience: bool = False
    # Snapshot-based crash recovery (docs/RESILIENCE.md); 0 takes no
    # checkpoints, so a recovering organization announces its digest
    # to every peer instead of replaying a delta.
    snapshot_interval: float = 0.0
    # Workload skew (Table 2 row 8): None = uniform; otherwise relative
    # per-organization weights.
    org_weights: Optional[Tuple[float, ...]] = None
    # Byzantine failures (Table 2 rows 10-12).
    byzantine_org_windows: Tuple[ByzantineWindow, ...] = ()
    byzantine_client_fraction: float = 0.0
    byzantine_client_faults: Tuple[str, ...] = ("proposal_only",)
    # Mechanics.
    seed: int = 0
    scale: float = field(default_factory=default_scale)
    drain: float = 8.0  # extra simulated time to let in-flight txns land
    timeline_bucket: float = 10.0
    # Observability (repro.obs): record per-transaction lifecycle spans
    # and/or sample per-node gauges every `sample_interval` simulated
    # seconds (0 disables sampling). Both are passive — enabling them
    # does not change simulated results (docs/OBSERVABILITY.md).
    trace: bool = False
    sample_interval: float = 0.0
    # Fault injection (repro.faults): a declarative schedule executed
    # deterministically during the run, and whether to run the
    # invariant oracles (repro.checkers) at quiescence. See
    # docs/FAULTS.md. The empty schedule injects nothing.
    fault_schedule: FaultSchedule = field(default_factory=FaultSchedule)
    check: bool = False
    # Schedule exploration (repro.explore): a controlled-nondeterminism
    # profile permuting same-time ties and/or jittering deliveries, and
    # an optional planted protocol bug activated for this run only (the
    # explorer's mutation smoke). The inactive profile and no planted
    # bug are the historical behavior.
    explore: ExploreProfile = field(default_factory=ExploreProfile)
    planted_bug: Optional[str] = None
    # Multi-application channels (repro.core.contract): empty () deploys
    # the one contract on the default channel (the golden-seed shape);
    # otherwise one channel per spec, each binding its own contract and
    # object-id namespace, driven at ``arrival_rate * rate_share / total``.
    # OrderlessChain only.
    channels: Tuple[ChannelSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}; choose from {SYSTEMS}")
        if self.app not in APPS:
            raise ConfigError(f"unknown app {self.app!r}; choose from {APPS}")
        if not 0 < self.quorum <= self.num_orgs:
            raise ConfigError(f"need 0 < q <= n, got q={self.quorum}, n={self.num_orgs}")
        if not 0.0 <= self.modify_ratio <= 1.0:
            raise ConfigError(f"modify_ratio must be in [0,1], got {self.modify_ratio}")
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.duration <= 0 or self.drain < 0:
            raise ConfigError(f"need duration > 0, drain >= 0; got {self.duration}, {self.drain}")
        if self.arrival_rate <= 0:
            raise ConfigError(f"arrival_rate must be positive, got {self.arrival_rate}")
        for name in (
            "num_clients", "obj_count", "ops_per_obj", "object_pool", "elections", "parties",
            "auctions", "gossip_ttl",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.gossip_interval <= 0:
            raise ConfigError(f"gossip_interval must be > 0, got {self.gossip_interval}")
        if self.gossip_fanout < 0:
            raise ConfigError(f"gossip_fanout must be >= 0, got {self.gossip_fanout}")
        for name in ("sync_interval", "snapshot_interval", "max_retries"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0 (0 disables), got {getattr(self, name)}")
        if self.crdt_type not in SYNTHETIC_CRDT_TYPES:
            raise ConfigError(
                f"unknown crdt_type {self.crdt_type!r}; choose from {SYNTHETIC_CRDT_TYPES}"
            )
        weights = self.org_weights
        if weights is not None and (
            len(weights) != self.num_orgs or not all(math.isfinite(w) and w > 0 for w in weights)
        ):
            raise ConfigError(f"org_weights needs {self.num_orgs} finite weights > 0, got {weights}")
        for window in self.byzantine_org_windows:
            end = window.end if window.end is not None else math.inf
            if not (0 <= window.count <= self.num_orgs and 0 <= window.start < end):
                raise ConfigError(f"{window} needs 0 <= count <= {self.num_orgs}, 0 <= start < end")
        if not 0.0 <= self.byzantine_client_fraction <= 1.0:
            raise ConfigError(
                f"byzantine_client_fraction must be in [0,1], got {self.byzantine_client_fraction}"
            )
        if self.sample_interval < 0:
            raise ConfigError(
                f"sample_interval must be >= 0, got {self.sample_interval}"
            )
        faults = set(self.byzantine_client_faults)
        if not faults or not faults <= VALID_CLIENT_FAULTS:
            raise ConfigError(
                f"byzantine_client_faults must be a non-empty subset of "
                f"{sorted(VALID_CLIENT_FAULTS)}, got {self.byzantine_client_faults}"
            )
        if self.system != "orderlesschain":
            for knob in ORDERLESSCHAIN_FIELDS:
                # Each of these fields has a plain default, kept as the
                # class attribute of the same name.
                if getattr(self, knob) != getattr(ExperimentConfig, knob):
                    raise ConfigError(f"{knob} is read only by orderlesschain, got {self.system!r}")
        seen = set()
        for spec in self.channels:
            if spec.channel_id in seen:
                raise ConfigError(f"duplicate channel id {spec.channel_id!r}")
            seen.add(spec.channel_id)
            if spec.app not in APPS:
                raise ConfigError(
                    f"unknown app {spec.app!r} on channel {spec.channel_id!r}; "
                    f"choose from {APPS}"
                )
            if spec.rate_share <= 0:
                raise ConfigError(
                    f"rate_share must be positive on channel {spec.channel_id!r}, "
                    f"got {spec.rate_share}"
                )
        if self.planted_bug is not None:
            # Imported lazily: repro.explore depends on this module.
            from repro.explore.plant import PLANTED_BUGS

            if self.planted_bug not in PLANTED_BUGS:
                raise ConfigError(
                    f"unknown planted bug {self.planted_bug!r}; "
                    f"valid: {sorted(PLANTED_BUGS)}"
                )

    # -- derived, scale-adjusted quantities --------------------------------

    @property
    def effective_rate(self) -> float:
        return self.arrival_rate / self.scale

    @property
    def effective_clients(self) -> int:
        return max(4, round(self.num_clients / self.scale))

    def perf(self) -> PerfModel:
        return PerfModel().scaled(self.scale)

    def with_(self, **kwargs) -> "ExperimentConfig":
        """A copy with some fields replaced (sweep helper)."""
        return replace(self, **kwargs)


__all__ = [
    "ExperimentConfig",
    "ByzantineWindow",
    "ChannelSpec",
    "SYSTEMS",
    "APPS",
    "default_scale",
]
