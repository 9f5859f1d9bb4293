"""The experiment catalog: every figure/table of the paper's Section 9.

One :class:`~repro.report.spec.ExperimentSpec` per panel, in the
document order of EXPERIMENTS.md. Each spec carries the paper's claim,
the panel's builder (:mod:`repro.bench.experiments`), every grid value
it sweeps (``grid``, full and ``--quick``), and the shape checks that
turn the claim into a mechanical verdict — this module is the only
registry of panels: ``python -m repro list / run / report``, the tier-1
smoke tests and the generated EXPERIMENTS.md all read it.

``--quick`` grids shrink each sweep to its endpoints plus the knee and
cut durations (6 simulated seconds for sweeps, 40 for the Figure 8
timelines), so the whole catalog regenerates in minutes on one core
while every registered shape still holds. Full grids match the
pre-catalog benchmark defaults (docs/CALIBRATION.md discusses scale).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench import experiments as E
from repro.errors import ConfigError
from repro.report.spec import ExperimentSpec

_SPECS: List[ExperimentSpec] = [
    # -- Figure 6: synthetic application sweeps -----------------------------
    ExperimentSpec(
        spec_id="fig6a",
        kind="sweep",
        build=E.fig6a_arrival_rate,
        x_label="rate",
        section_title="Figure 6(a) — synthetic, arrival-rate sweep (E1)",
        paper_claim=(
            "Throughput tracks the arrival rate up to 10,000 tps; latency "
            "rises (toward ~1 s at the top of the sweep)."
        ),
        params={"duration": 20.0, "grid": [1000, 3000, 5000, 8000, 10000]},
        quick_params={"duration": 6.0, "grid": [1000, 5000, 10000]},
        checks=("fig6a-tput-tracks-rate", "fig6a-latency-rises"),
        notes=(
            "Throughput ≈ arrival across the sweep; average and p99 latency "
            "rise as the organizations approach saturation."
        ),
    ),
    ExperimentSpec(
        spec_id="fig6b",
        kind="sweep",
        build=E.fig6b_organizations,
        x_label="orgs",
        section_title="Figure 6(b) — organizations sweep, EP {4 of n} (E2)",
        paper_claim=(
            "Scales from 8 to 32 organizations \"without affecting the "
            "throughput and latency\"."
        ),
        params={"duration": 20.0, "grid": [8, 16, 24, 32]},
        quick_params={"duration": 6.0, "grid": [8, 16, 32]},
        checks=("tput-flat-1.2", "lat-flat-1.5"),
        notes="Throughput and latency stay flat as the network grows under EP {4 of n}.",
    ),
    ExperimentSpec(
        spec_id="fig6c",
        kind="sweep",
        build=E.fig6c_endorsement_policy,
        x_label="EP",
        section_title="Figure 6(c) — endorsement policy {q of 16} (E3)",
        paper_claim=(
            "Latency increases with q (toward ~2 s); throughput degrades at "
            "large quorums."
        ),
        params={"duration": 20.0, "grid": [2, 4, 8, 12, 16]},
        quick_params={"duration": 6.0, "grid": [2, 8, 16]},
        checks=("fig6c-latency-grows", "fig6c-throughput-degrades"),
        notes=(
            "Monotone rise with the blow-up at the full-quorum policy "
            "(every organization then serves the entire load)."
        ),
    ),
    ExperimentSpec(
        spec_id="fig6d",
        kind="sweep",
        build=E.fig6d_object_count,
        x_label="objects",
        section_title="Figure 6(d) — objects per transaction (E4)",
        paper_claim=(
            "Latency increases with the number of objects \"due to the "
            "locking mechanism used in the cache\"."
        ),
        params={"duration": 20.0, "grid": [2, 4, 8, 12, 16]},
        quick_params={"duration": 6.0, "grid": [2, 8, 16]},
        checks=("fig6d-latency-grows",),
        notes="The cache lock is acquired once per touched object.",
    ),
    # -- Section 9 text, configurations 5-9 ---------------------------------
    ExperimentSpec(
        spec_id="fig6t-ops",
        kind="sweep",
        build=E.text_config_ops_per_object,
        x_label="ops",
        group="fig6text",
        section_title="Section 9 text, config 5 — operations per object (E5)",
        paper_claim="Throughput and latency are unaffected by operations per object.",
        params={"duration": 15.0, "grid": [2, 4, 8, 16]},
        quick_params={"duration": 6.0, "grid": [2, 16]},
        checks=("lat-flat-1.6",),
    ),
    ExperimentSpec(
        spec_id="fig6t-crdt",
        kind="sweep",
        build=E.text_config_crdt_type,
        x_label="type",
        group="fig6text",
        section_title="Section 9 text, config 6 — CRDT type (E5)",
        paper_claim="Results are independent of the CRDT type.",
        params={"duration": 15.0, "grid": ["gcounter", "mvregister", "map"]},
        quick_params={"duration": 6.0},
        checks=("lat-flat-1.5", "tput-flat-1.2"),
    ),
    ExperimentSpec(
        spec_id="fig6t-mix",
        kind="sweep",
        build=E.text_config_workload_mix,
        x_label="mix",
        group="fig6text",
        section_title="Section 9 text, config 7 — read/modify mix (E5)",
        paper_claim="Throughput/latency unaffected from R10M90 to R90M10.",
        params={"duration": 15.0, "grid": [90, 70, 50, 30, 10]},  # modify %
        quick_params={"duration": 6.0},
        checks=("tput-flat-1.25",),
    ),
    ExperimentSpec(
        spec_id="fig6t-skew",
        kind="sweep",
        build=E.text_config_workload_skew,
        x_label="dist",
        group="fig6text",
        section_title="Section 9 text, config 8 — load distribution (E5)",
        paper_claim=(
            "Essentially unchanged under normally-distributed load (slight "
            "latency increase at hot organizations)."
        ),
        params={"duration": 15.0},
        quick_params={"duration": 6.0},
        checks=("lat-flat-1.5",),
    ),
    ExperimentSpec(
        spec_id="fig6t-gossip",
        kind="sweep",
        build=E.text_config_gossip_ratio,
        x_label="fanout",
        group="fig6text",
        section_title="Section 9 text, config 9 — gossip ratio (E5)",
        paper_claim="Insensitive to the gossip ratio.",
        params={"duration": 15.0, "grid": [1, 3, 7, 15]},
        quick_params={"duration": 6.0, "grid": [1, 15]},
        checks=("lat-flat-1.5", "tput-flat-1.2"),
    ),
    # -- Figure 7 ------------------------------------------------------------
    ExperimentSpec(
        spec_id="fig7",
        kind="comparison",
        build=E.fig7_latency_vs_throughput,
        x_label="rate",
        section_title="Figure 7 — latency vs throughput for 16/24/32 orgs (E6)",
        paper_claim=(
            "OrderlessChain scales; the latency-throughput curves stay low "
            "and flat for all three network sizes."
        ),
        params={
            "duration": 20.0,
            "org_counts": [16, 24, 32],
            "grid": [1000, 3000, 5000, 8000, 10000],
        },
        quick_params={
            "duration": 6.0,
            "org_counts": [16, 32],
            "grid": [1000, 5000, 10000],
        },
        checks=("fig7-scales",),
        notes=(
            "Larger networks saturate later: per-organization endorsement "
            "load shrinks with n under EP {4 of n}."
        ),
    ),
    # -- Figure 8 ------------------------------------------------------------
    ExperimentSpec(
        spec_id="fig8a",
        kind="timeline",
        build=E.fig8_byzantine_orgs,
        section_title="Figure 8(a) — Byzantine organizations, no avoidance (E7)",
        paper_claim=(
            "Throughput drops with each escalation f:1 → f:2 → f:3 and "
            "recovers at f:0; latency of successful transactions is unaffected."
        ),
        params={"avoidance": False, "duration": 90.0},
        quick_params={"duration": 40.0},
        checks=("fig8a-drop-and-recover",),
        notes=(
            "Failures come from clients whose quorum hit a Byzantine "
            "organization, not from slowdown; successful-transaction latency "
            "stays at the healthy baseline."
        ),
    ),
    ExperimentSpec(
        spec_id="fig8b",
        kind="timeline",
        build=E.fig8_byzantine_orgs,
        section_title="Figure 8(b) — Byzantine organizations, avoidance (E7)",
        paper_claim=(
            "With avoidance, throughput returns to its pre-failure value "
            "during the Byzantine windows."
        ),
        params={"avoidance": True, "duration": 90.0},
        quick_params={"duration": 40.0},
        checks=("fig8b-avoidance-holds",),
    ),
    # -- Section 9 text: Byzantine clients -----------------------------------
    ExperimentSpec(
        spec_id="fig8t-clients",
        kind="sweep",
        build=E.fig8_text_byzantine_clients,
        x_label="frac",
        group="fig8text",
        section_title="Section 9 text — Byzantine clients (E8)",
        paper_claim=(
            "All faulty transactions are rejected while latency is "
            "unaffected (safe and live)."
        ),
        params={"duration": 20.0, "grid": [0.5, 0.75, 1.0]},
        quick_params={"duration": 6.0, "grid": [0.5, 1.0]},
        checks=("fig8t-safety-and-liveness",),
        notes=(
            "Modify throughput falls exactly with the honest fraction; no "
            "faulty transaction ever commits; honest latency stays at the "
            "baseline."
        ),
    ),
    ExperimentSpec(
        spec_id="fig8t-combined",
        kind="sweep",
        build=E.fig8_text_byzantine_clients,
        x_label="frac",
        group="fig8text",
        section_title="Section 9 text — Byzantine clients + 3 Byzantine orgs (E8)",
        paper_claim=(
            "Three Byzantine organizations plus Byzantine clients decrease "
            "throughput without affecting latency."
        ),
        params={"duration": 20.0, "grid": [0.5], "with_byzantine_orgs": True},
        quick_params={"duration": 6.0},
        checks=("fig8t-combined-degrades-safely",),
    ),
    # -- Figures 9 and 10 ----------------------------------------------------
    ExperimentSpec(
        spec_id="fig9-voting",
        kind="comparison",
        build=E.fig9_comparison,
        x_label="rate",
        group="fig9",
        section_title="Figure 9(a)/(c) — voting vs Fabric and FabricCRDT (E9)",
        paper_claim=(
            "8 orgs, EP {4 of 8}, 500-2500 tps: OrderlessChain wins on "
            "throughput; up to 90 % of Fabric's voting transactions fail "
            "MVCC; Fabric's latency explodes as the orderer saturates; "
            "FabricCRDT's merge is a bottleneck; OrderlessChain's latency "
            "stays constant."
        ),
        params={"app": "voting", "duration": 20.0, "grid": [500, 1000, 1500, 2000, 2500]},
        quick_params={"duration": 6.0, "grid": [500, 1500, 2500]},
        checks=("fig9-orderless-wins", "fig9-fabric-mvcc-fails", "fig9-latency-shapes"),
    ),
    ExperimentSpec(
        spec_id="fig9-auction",
        kind="comparison",
        build=E.fig9_comparison,
        x_label="rate",
        group="fig9",
        section_title="Figure 9(b)/(d) — auction vs Fabric and FabricCRDT (E10)",
        paper_claim=(
            "Same grid on the auction application: contended highest-bid "
            "keys fail MVCC on Fabric, FabricCRDT merges grow, "
            "OrderlessChain stays flat."
        ),
        params={"app": "auction", "duration": 20.0, "grid": [500, 1000, 1500, 2000, 2500]},
        quick_params={"duration": 6.0, "grid": [500, 1500, 2500]},
        checks=("fig9-auction-wins", "fig9-latency-shapes"),
    ),
    ExperimentSpec(
        spec_id="fig10-voting",
        kind="comparison",
        build=E.fig10_comparison,
        x_label="rate",
        group="fig10",
        section_title="Figure 10(a)/(c) — voting vs BIDL and Sync HotStuff (E11)",
        paper_claim=(
            "16 orgs, 500-4000 tps: both scale better than Fabric but "
            "OrderlessChain still wins; BIDL blows up past ~3000 tps; Sync "
            "HotStuff at 4000 tps; OrderlessChain constant."
        ),
        params={"app": "voting", "duration": 20.0, "grid": [500, 1500, 2500, 3500, 4000]},
        quick_params={"duration": 6.0, "grid": [500, 2500, 4000]},
        checks=("fig10-orderless-flat", "fig10-knees", "fig10-top-rate-ranking"),
        notes=(
            "BIDL's read and modify latencies track each other (BFT reads "
            "go through the pipeline), matching the paper's near-equal "
            "label pairs."
        ),
    ),
    ExperimentSpec(
        spec_id="fig10-auction",
        kind="comparison",
        build=E.fig10_comparison,
        x_label="rate",
        group="fig10",
        section_title="Figure 10(b)/(d) — auction vs BIDL and Sync HotStuff (E12)",
        paper_claim="The auction application matches the voting shapes.",
        params={"app": "auction", "duration": 20.0, "grid": [500, 1500, 2500, 3500, 4000]},
        quick_params={"duration": 6.0, "grid": [500, 2500, 4000]},
        checks=("fig10-orderless-flat", "fig10-knees", "fig10-top-rate-ranking"),
    ),
    # -- Table 3 and resource utilization ------------------------------------
    ExperimentSpec(
        spec_id="table3",
        kind="breakdown",
        build=E.table3_breakdown,
        section_title="Table 3 — transaction processing time breakdown (E13)",
        paper_claim=(
            "OrderlessChain's two phases are small and same-order (paper: "
            "P1 64, P2 110 ms); consensus/ordering dominates every "
            "coordination-based system by two to three orders of magnitude."
        ),
        params={"duration": 20.0},
        quick_params={"duration": 6.0},
        checks=("table3-coordination-dominates",),
        notes=(
            "Consensus magnitudes depend on run length (backlogs grow for "
            "the whole run) and on the scale factor; see docs/CALIBRATION.md."
        ),
    ),
    ExperimentSpec(
        spec_id="resource-util",
        kind="scalar",
        build=E.resource_utilization_comparison,
        section_title="Section 9 text — resource utilization",
        paper_claim=(
            "At 2,500 tps voting, OrderlessChain organizations run at ~50 % "
            "CPU vs Fabric's ~30 %, attributed to applying CRDT operations "
            "to the cache, bounded by the sequential cache section."
        ),
        params={"duration": 15.0},
        quick_params={"duration": 6.0},
        checks=("util-orderless-higher-bounded",),
    ),
    # -- ablations -----------------------------------------------------------
    ExperimentSpec(
        spec_id="abl-gossip",
        kind="sweep",
        build=E.ablation_gossip_interval,
        x_label="period",
        group="ablations",
        section_title="Ablation — gossip interval (E15)",
        paper_claim=(
            "Client-visible latency is unchanged across gossip periods — "
            "commits need only the q contacted organizations."
        ),
        params={"duration": 15.0, "grid": [0.5, 1.0, 2.0, 5.0]},
        quick_params={"duration": 6.0, "grid": [0.5, 5.0]},
        checks=("lat-flat-1.5",),
    ),
    # -- resilience (beyond the paper; docs/RESILIENCE.md) -------------------
    ExperimentSpec(
        spec_id="resilience-avail",
        kind="sweep",
        build=E.resilience_availability,
        x_label="run",
        section_title="Availability under chaos — fixed vs adaptive resilience",
        paper_claim=(
            "Beyond the paper's figures: under the standard crash + "
            "partition + loss chaos schedule, the adaptive resilience "
            "layer (RTT-aware timeouts with backoff, hedged solicitation, "
            "circuit breakers, snapshot recovery) commits strictly more "
            "transactions than the fixed-timeout client with the same "
            "retry budget, with every invariant oracle green."
        ),
        params={"duration": 20.0, "grid": [1, 2, 3]},  # seed offsets
        quick_params={"duration": 20.0, "grid": [1, 2]},
        checks=("resilience-adaptive-wins",),
        notes=(
            "Both arms run max_retries=2 under the same smoke schedule; "
            "only the timeout/targeting policy differs, so the committed "
            "delta is attributable to the adaptive layer."
        ),
    ),
]

CATALOG: Dict[str, ExperimentSpec] = {spec.spec_id: spec for spec in _SPECS}
if len(CATALOG) != len(_SPECS):  # pragma: no cover - construction-time guard
    raise ConfigError("duplicate spec_id in catalog")

# Small, fast specs used by smoke tests and examples.
SMOKE_SPEC_IDS = ("fig6b", "abl-gossip")


def all_specs() -> List[ExperimentSpec]:
    """Every spec, in EXPERIMENTS.md document order."""
    return list(_SPECS)


def get_spec(spec_id: str) -> ExperimentSpec:
    try:
        return CATALOG[spec_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {spec_id!r}; choose from {', '.join(CATALOG)}"
        ) from None


def select_specs(names: Optional[Sequence[str]] = None) -> List[ExperimentSpec]:
    """Resolve a ``--figures`` selection to specs, in catalog order.

    Each name matches a ``spec_id``, a ``group`` (e.g. ``fig9``
    selects both applications), or the alias ``smoke`` (the tier-1
    smoke pair, :data:`SMOKE_SPEC_IDS`). Unknown names raise.
    """
    if not names:
        return all_specs()
    wanted = [
        expanded
        for name in names
        for expanded in (SMOKE_SPEC_IDS if name == "smoke" else (name,))
    ]
    known = {spec.spec_id for spec in _SPECS} | {spec.group for spec in _SPECS if spec.group}
    unknown = [name for name in wanted if name not in known]
    if unknown:
        raise ConfigError(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(known))})"
        )
    return [
        spec for spec in _SPECS if spec.spec_id in wanted or (spec.group and spec.group in wanted)
    ]


__all__ = ["CATALOG", "SMOKE_SPEC_IDS", "all_specs", "get_spec", "select_specs"]
