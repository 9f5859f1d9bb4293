"""Per-figure experiment definitions (the E1-E15 index in DESIGN.md).

Every function returns the data its figure plots, as
``(x_value, ExperimentResult)`` pairs or dictionaries of such series.
Rates and sizes are paper-scale; the ``scale`` parameter (default from
``REPRO_BENCH_SCALE``, see DESIGN.md) makes the runs laptop-sized while
preserving utilization, contention, and therefore shape.

Durations default to a fraction of the paper's 180 s so the full suite
completes quickly; pass ``duration=180`` for the paper's length.

Every sweep accepts ``jobs``: the number of worker processes used to
run its points concurrently via :func:`repro.bench.parallel.run_sweep`.
``None`` defers to the ``REPRO_BENCH_JOBS`` environment variable
(default 1 = serial). Results are identical for any job count — each
point is an isolated, seeded simulation (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.config import (
    ByzantineWindow,
    ChannelSpec,
    ExperimentConfig,
    default_scale,
)
from repro.bench.metrics import ExperimentResult
from repro.bench.parallel import expect_results, run_sweep
from repro.bench.runner import run_experiment
from repro.faults import FaultSchedule, default_node_ids, smoke_schedule

SweepResult = List[Tuple[object, ExperimentResult]]

# The paper's sweep grids (Table 2 and Section 9).
PAPER_ARRIVAL_RATES = [1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000]
PAPER_ORG_COUNTS = [8, 16, 24, 32]
PAPER_QUORUMS = [2, 4, 6, 8, 10, 12, 14, 16]
PAPER_OBJECT_COUNTS = [2, 4, 6, 8, 10, 12, 14, 16]
PAPER_OPS_PER_OBJ = [2, 4, 8, 16]
PAPER_FIG9_RATES = [500, 1000, 1500, 2000, 2500]
PAPER_FIG10_RATES = [500, 1000, 1500, 2000, 2500, 3000, 3500, 4000]

# Default (reduced) grids keep benchmark wall time reasonable while
# spanning each sweep's full range, including the knees.
DEFAULT_ARRIVAL_RATES = [1000, 3000, 5000, 8000, 10000]
DEFAULT_OBJECT_COUNTS = [2, 4, 8, 12, 16]
DEFAULT_QUORUMS = [2, 4, 8, 12, 16]
DEFAULT_FIG10_RATES = [500, 1500, 2500, 3500, 4000]


def _base(duration: float, scale: Optional[float], seed: int) -> Dict[str, object]:
    return {
        "duration": duration,
        "scale": scale if scale is not None else default_scale(),
        "seed": seed,
    }


def _sweep(
    labels: Sequence[object],
    configs: Sequence[ExperimentConfig],
    jobs: Optional[int],
) -> SweepResult:
    """Run ``configs`` (possibly in parallel) and pair with ``labels``."""
    return list(zip(labels, expect_results(run_sweep(configs, jobs=jobs))))


# -- E1, Figure 6(a): transaction arrival rate -----------------------------


def fig6a_arrival_rate(
    rates: Optional[Sequence[float]] = None,
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    rates = rates or DEFAULT_ARRIVAL_RATES
    configs = [
        ExperimentConfig(
            system="orderlesschain", app="synthetic", arrival_rate=rate, **_base(duration, scale, seed)
        )
        for rate in rates
    ]
    return _sweep(rates, configs, jobs)


# -- E2, Figure 6(b): number of organizations, EP {4 of n} ---------------------


def fig6b_organizations(
    org_counts: Optional[Sequence[int]] = None,
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    org_counts = org_counts or PAPER_ORG_COUNTS
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app="synthetic",
            num_orgs=num_orgs,
            quorum=4,
            **_base(duration, scale, seed),
        )
        for num_orgs in org_counts
    ]
    return _sweep(org_counts, configs, jobs)


# -- E3, Figure 6(c): endorsement policy {q of 16} ------------------------------


def fig6c_endorsement_policy(
    quorums: Optional[Sequence[int]] = None,
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    quorums = quorums or DEFAULT_QUORUMS
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app="synthetic",
            num_orgs=16,
            quorum=quorum,
            **_base(duration, scale, seed),
        )
        for quorum in quorums
    ]
    return _sweep([f"{quorum} of 16" for quorum in quorums], configs, jobs)


# -- E4, Figure 6(d): number of objects per transaction ----------------------------


def fig6d_object_count(
    object_counts: Optional[Sequence[int]] = None,
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    object_counts = object_counts or DEFAULT_OBJECT_COUNTS
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app="synthetic",
            obj_count=obj_count,
            **_base(duration, scale, seed),
        )
        for obj_count in object_counts
    ]
    return _sweep(object_counts, configs, jobs)


# -- E5, configurations 5-9 (reported in the text of Section 9) ------------------


def text_config_ops_per_object(
    ops_counts: Optional[Sequence[int]] = None,
    duration: float = 15.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """Config 5: operations per object (text: unaffected)."""
    ops_counts = ops_counts or PAPER_OPS_PER_OBJ
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app="synthetic",
            ops_per_obj=ops,
            **_base(duration, scale, seed),
        )
        for ops in ops_counts
    ]
    return _sweep(ops_counts, configs, jobs)


def text_config_crdt_type(
    duration: float = 15.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """Config 6: CRDT type (text: independent of type)."""
    crdt_types = ("gcounter", "mvregister", "map")
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app="synthetic",
            crdt_type=crdt_type,
            **_base(duration, scale, seed),
        )
        for crdt_type in crdt_types
    ]
    return _sweep(crdt_types, configs, jobs)


def text_config_workload_mix(
    duration: float = 15.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """Config 7: read/modify mix from R10M90 to R90M10 (text: unaffected)."""
    modify_pcts = (90, 70, 50, 30, 10)
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app="synthetic",
            modify_ratio=modify_pct / 100.0,
            **_base(duration, scale, seed),
        )
        for modify_pct in modify_pcts
    ]
    labels = [f"R{100 - modify_pct}M{modify_pct}" for modify_pct in modify_pcts]
    return _sweep(labels, configs, jobs)


def text_config_workload_skew(
    duration: float = 15.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """Config 8: uniform vs normally-distributed load per organization."""
    import math

    uniform = ExperimentConfig(
        system="orderlesschain", app="synthetic", **_base(duration, scale, seed)
    )
    # A bell over the organization indexes: middle orgs get more load.
    n = uniform.num_orgs
    weights = tuple(math.exp(-(((i - (n - 1) / 2) / (n / 4)) ** 2)) for i in range(n))
    skewed = uniform.with_(org_weights=weights)
    return _sweep(["uniform", "normal"], [uniform, skewed], jobs)


def text_config_gossip_ratio(
    ratios: Optional[Sequence[int]] = None,
    duration: float = 15.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """Config 9: gossip ratio 1..15 organizations (text: no change)."""
    ratios = ratios or [1, 3, 7, 15]
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app="synthetic",
            gossip_fanout=fanout,
            **_base(duration, scale, seed),
        )
        for fanout in ratios
    ]
    return _sweep(ratios, configs, jobs)


# -- E6, Figure 7: latency vs throughput for 16/24/32 organizations ---------------


def fig7_latency_vs_throughput(
    org_counts: Optional[Sequence[int]] = None,
    rates: Optional[Sequence[float]] = None,
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Dict[str, SweepResult]:
    org_counts = org_counts or [16, 24, 32]
    rates = rates or DEFAULT_ARRIVAL_RATES
    # One flat sweep over the whole (orgs x rate) grid, so parallel
    # workers stay busy across series boundaries.
    grid = [(num_orgs, rate) for num_orgs in org_counts for rate in rates]
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app="synthetic",
            num_orgs=num_orgs,
            quorum=4,
            arrival_rate=rate,
            **_base(duration, scale, seed),
        )
        for num_orgs, rate in grid
    ]
    results = expect_results(run_sweep(configs, jobs=jobs))
    series: Dict[str, SweepResult] = {f"{num_orgs} orgs": [] for num_orgs in org_counts}
    for (num_orgs, rate), result in zip(grid, results):
        series[f"{num_orgs} orgs"].append((rate, result))
    return series


# -- E7, Figure 8: Byzantine organizations over time ------------------------------


def fig8_byzantine_orgs(
    avoidance: bool,
    duration: float = 90.0,
    scale: Optional[float] = None,
    seed: int = 0,
    arrival_rate: float = 3000.0,
) -> ExperimentResult:
    """Escalating Byzantine windows f:1 -> f:2 -> f:3 -> f:0.

    The window boundaries follow the paper's 30/70/110/150 s marks,
    rescaled to ``duration``. Figure 8(a) is ``avoidance=False``;
    Figure 8(b) is ``avoidance=True`` (clients blacklist and retry).
    """
    marks = [duration * frac for frac in (30 / 180, 70 / 180, 110 / 180, 150 / 180)]
    windows = (
        ByzantineWindow(count=1, start=marks[0], end=marks[1]),
        ByzantineWindow(count=2, start=marks[1], end=marks[2]),
        ByzantineWindow(count=3, start=marks[2], end=marks[3]),
    )
    config = ExperimentConfig(
        system="orderlesschain",
        app="synthetic",
        arrival_rate=arrival_rate,
        byzantine_org_windows=windows,
        avoid_byzantine=avoidance,
        max_retries=1 if avoidance else 0,
        timeline_bucket=duration / 18,
        **_base(duration, scale, seed),
    )
    return run_experiment(config)


def fig8_text_byzantine_clients(
    fractions: Optional[Sequence[float]] = None,
    with_byzantine_orgs: bool = False,
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """E8: Byzantine client fractions 50/75/100 %, optionally with
    three Byzantine organizations (Table 2 rows 11-12)."""
    fractions = fractions or [0.5, 0.75, 1.0]
    windows = (
        (ByzantineWindow(count=3, start=0.0, end=None),) if with_byzantine_orgs else ()
    )
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app="synthetic",
            byzantine_client_fraction=fraction,
            byzantine_client_faults=("proposal_only", "tamper"),
            byzantine_org_windows=windows,
            **_base(duration, scale, seed),
        )
        for fraction in fractions
    ]
    labels = [f"{int(fraction * 100)}%" for fraction in fractions]
    return _sweep(labels, configs, jobs)


# -- E9-E12, Figures 9 and 10: voting and auction across systems --------------------


def _comparison(
    systems: Sequence[str],
    app: str,
    rates: Sequence[float],
    num_orgs: int,
    duration: float,
    scale: Optional[float],
    seed: int,
    jobs: Optional[int],
) -> Dict[str, SweepResult]:
    """Shared system-comparison grid for Figures 9 and 10."""
    grid = [(system, rate) for system in systems for rate in rates]
    configs = [
        ExperimentConfig(
            system=system,
            app=app,
            num_orgs=num_orgs,
            quorum=4,
            arrival_rate=rate,
            **_base(duration, scale, seed + int(rate)),
        )
        for system, rate in grid
    ]
    results = expect_results(run_sweep(configs, jobs=jobs))
    series: Dict[str, SweepResult] = {system: [] for system in systems}
    for (system, rate), result in zip(grid, results):
        series[system].append((rate, result))
    return series


def fig9_comparison(
    app: str,
    rates: Optional[Sequence[float]] = None,
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Dict[str, SweepResult]:
    """OrderlessChain vs Fabric vs FabricCRDT, 8 orgs, EP {4 of 8}."""
    rates = rates or PAPER_FIG9_RATES
    return _comparison(
        ("orderlesschain", "fabric", "fabriccrdt"),
        app,
        rates,
        num_orgs=8,
        duration=duration,
        scale=scale,
        seed=seed,
        jobs=jobs,
    )


def fig10_comparison(
    app: str,
    rates: Optional[Sequence[float]] = None,
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Dict[str, SweepResult]:
    """OrderlessChain vs BIDL vs Sync HotStuff, 16 orgs, EP {4 of 16}."""
    rates = rates or DEFAULT_FIG10_RATES
    return _comparison(
        ("orderlesschain", "bidl", "synchotstuff"),
        app,
        rates,
        num_orgs=16,
        duration=duration,
        scale=scale,
        seed=seed,
        jobs=jobs,
    )


# -- E13, Table 3: transaction processing time breakdown -----------------------------


def table3_breakdown(
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Phase means per system at the paper's operating points.

    OrderlessChain and Fabric at 2500 tps voting (8 orgs, EP {4 of 8});
    BIDL and Sync HotStuff at 4000 tps voting (16 orgs).
    """
    points = (
        ("orderlesschain", 2500, 8),
        ("fabric", 2500, 8),
        ("bidl", 4000, 16),
        ("synchotstuff", 4000, 16),
    )
    configs = [
        ExperimentConfig(
            system=system,
            app="voting",
            num_orgs=num_orgs,
            quorum=4,
            arrival_rate=rate,
            **_base(duration, scale, seed),
        )
        for system, rate, num_orgs in points
    ]
    results = expect_results(run_sweep(configs, jobs=jobs))
    return {
        system: result.phase_means_ms
        for (system, _, _), result in zip(points, results)
    }


def resource_utilization_comparison(
    duration: float = 15.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Dict[str, float]:
    """Section 9's resource-utilization observation: at 2500 tps voting,
    OrderlessChain organizations run at higher CPU utilization than
    Fabric organizations (the paper reports ~50 % vs ~30 %), because of
    applying CRDT operations to the cache — and the extra utilization
    is bounded by the cache lock's serialization."""
    systems = ("orderlesschain", "fabric")
    configs = [
        ExperimentConfig(
            system=system,
            app="voting",
            num_orgs=8,
            quorum=4,
            arrival_rate=2500,
            **_base(duration, scale, seed),
        )
        for system in systems
    ]
    results = expect_results(run_sweep(configs, jobs=jobs))
    return {
        system: result.extra.get("mean_org_cpu_utilization", 0.0)
        for system, result in zip(systems, results)
    }


# -- E15, ablations of DESIGN.md's design choices ---------------------------------------


def ablation_cache(
    duration: float = 15.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """CRDT value cache on vs off (reads replay the operation log)."""
    labeled = (("cache on", True), ("cache off", False))
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app="synthetic",
            cache_enabled=enabled,
            **_base(duration, scale, seed),
        )
        for _, enabled in labeled
    ]
    return _sweep([label for label, _ in labeled], configs, jobs)


def ablation_fabric_orderer(
    duration: float = 15.0, scale: Optional[float] = None, seed: int = 0
) -> SweepResult:
    """Solo vs Raft ordering service for Fabric (Raft adds a WAN round
    trip of follower replication per block; neither is BFT).

    Builds its networks by hand (the orderer type is not an
    :class:`ExperimentConfig` field), so it runs serially.
    """
    from repro.baselines.fabric import FabricNetwork, FabricSettings
    from repro.bench.metrics import compute_result
    from repro.bench.runner import _baseline_submit, _drive
    from repro.bench.workload import make_workload

    results = []
    base = ExperimentConfig(
        system="fabric", app="voting", num_orgs=8, quorum=4, arrival_rate=500, **_base(duration, scale, seed)
    )
    for orderer_type in ("solo", "raft"):
        workload = make_workload(base)
        net = FabricNetwork(
            FabricSettings(
                num_orgs=base.num_orgs,
                quorum=base.quorum,
                app=base.app,
                seed=base.seed,
                perf=base.perf(),
                orderer_type=orderer_type,
            )
        )
        for _ in range(base.effective_clients):
            net.add_client()
        workload_rng = net.rng.stream("workload")
        _drive(
            net.sim,
            workload_rng,
            net.clients,
            _baseline_submit(workload, workload_rng),
            base.effective_rate,
            base.duration,
            base.modify_ratio,
        )
        net.run(until=base.duration + base.drain)
        results.append(
            (
                orderer_type,
                compute_result(
                    net.recorder, "fabric", base.app, base.arrival_rate, base.scale
                ),
            )
        )
    return results


def ablation_gossip_interval(
    intervals: Optional[Sequence[float]] = None,
    duration: float = 15.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """Gossip period sweep (the paper fixes it at 1 s)."""
    intervals = intervals or [0.5, 1.0, 2.0, 5.0]
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app="synthetic",
            gossip_interval=interval,
            **_base(duration, scale, seed),
        )
        for interval in intervals
    ]
    return _sweep(intervals, configs, jobs)


# -- chaos: fault schedules + invariant oracles (docs/FAULTS.md) ---------------

SYSTEMS_UNDER_CHAOS = ("orderlesschain", "fabric", "fabriccrdt", "bidl", "synchotstuff")


def chaos_run(
    system: str = "orderlesschain",
    app: str = "voting",
    schedule: Optional[FaultSchedule] = None,
    arrival_rate: float = 400.0,
    num_orgs: int = 4,
    quorum: int = 2,
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
    resilience: bool = False,
    max_retries: int = 0,
    snapshot_interval: float = 0.0,
) -> ExperimentResult:
    """One system under a fault schedule, oracle-checked at quiescence.

    Uses :func:`repro.faults.smoke_schedule` (crash + partition + loss
    burst) when no schedule is given, and extends the run past the
    schedule horizon so recovery traffic can drain before the checkers
    judge convergence and liveness. The result carries
    ``check_report`` (pass/fail per oracle) and ``fingerprint`` (the
    deterministic run digest). ``resilience`` turns on the adaptive
    resilience layer (docs/RESILIENCE.md) — OrderlessChain only.
    """
    if schedule is None:
        schedule = smoke_schedule(default_node_ids(system, num_orgs))
    config = ExperimentConfig(
        system=system,
        app=app,
        arrival_rate=arrival_rate,
        num_orgs=num_orgs,
        quorum=quorum,
        fault_schedule=schedule,
        check=True,
        resilience=resilience,
        max_retries=max_retries,
        snapshot_interval=snapshot_interval,
        **_base(max(duration, schedule.horizon + 5.0), scale, seed),
    )
    return run_experiment(config)


def resilience_availability(
    seeds: Sequence[int] = (1, 2, 3),
    app: str = "voting",
    arrival_rate: float = 400.0,
    num_orgs: int = 4,
    quorum: int = 2,
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """Availability under chaos: fixed timeouts vs adaptive resilience.

    Both arms run OrderlessChain under the standard crash + partition
    + loss smoke schedule with the same retry budget (``max_retries=2``
    — isolating *how* the retries adapt, not whether they exist). The
    adaptive arm adds RTT-aware deadlines with backoff, hedged
    solicitation, circuit breakers, and 5-second snapshot checkpoints
    (docs/RESILIENCE.md). Labels are ``{mode}/seed{seed}``; the
    ``resilience-adaptive-wins`` check asserts the adaptive arm commits
    strictly more per seed while every oracle stays green.
    """
    schedule = smoke_schedule(default_node_ids("orderlesschain", num_orgs))
    # ``seed`` (pinned by the report pipeline) offsets the whole seed set.
    seeds = tuple(seed + s for s in seeds)
    grid = [(mode, s) for mode in ("fixed", "adaptive") for s in seeds]
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app=app,
            arrival_rate=arrival_rate,
            num_orgs=num_orgs,
            quorum=quorum,
            fault_schedule=schedule,
            check=True,
            max_retries=2,
            resilience=mode == "adaptive",
            snapshot_interval=5.0 if mode == "adaptive" else 0.0,
            **_base(max(duration, schedule.horizon + 5.0), scale, seed),
        )
        for mode, seed in grid
    ]
    labels = [f"{mode}/seed{seed}" for mode, seed in grid]
    return _sweep(labels, configs, jobs)


def multichannel_scaling(
    channel_counts: Sequence[int] = (1, 2, 4),
    apps: Sequence[str] = ("synthetic", "voting"),
    per_channel_rate: float = 400.0,
    num_orgs: int = 4,
    quorum: int = 2,
    duration: float = 10.0,
    scale: Optional[float] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SweepResult:
    """Aggregate committed throughput vs channel count at fixed
    per-channel load.

    Each point deploys ``n`` channels on one OrderlessChain network
    (channel ``ch{i}`` runs ``apps[i % len(apps)]``) and drives every
    channel at ``per_channel_rate`` tx/s, so the offered load grows
    linearly with ``n``. Because channels shard the org hot path —
    per-channel ledgers, commit indices, gossip backlogs, and
    anti-entropy digests — aggregate committed throughput should scale
    with channel count; the ``multichannel-throughput-scales`` check
    asserts committed transactions increase monotonically 1 -> N while
    the per-channel convergence and ledger-integrity oracles stay
    green. Labels are the channel counts (the panel's x axis).
    """
    configs = [
        ExperimentConfig(
            system="orderlesschain",
            app=apps[0],
            arrival_rate=per_channel_rate * count,
            num_orgs=num_orgs,
            quorum=quorum,
            check=True,
            channels=tuple(
                ChannelSpec(f"ch{index}", app=apps[index % len(apps)])
                for index in range(count)
            ),
            **_base(duration, scale, seed),
        )
        for count in channel_counts
    ]
    labels = [str(count) for count in channel_counts]
    return _sweep(labels, configs, jobs)


def multichannel_chaos(
    apps: Sequence[str] = ("voting", "auction"),
    per_channel_rate: float = 400.0,
    num_orgs: int = 4,
    quorum: int = 2,
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
    resilience: bool = False,
) -> ExperimentResult:
    """A multi-application channel deployment under the chaos smoke.

    One channel per entry of ``apps``, each driven at
    ``per_channel_rate``, run through the standard crash + partition +
    loss schedule. The convergence and ledger-integrity oracles check
    every channel shard (the fault adapter exposes one ledger per
    ``org/channel``), so a pass means each application's replicas
    converged independently despite the faults.
    """
    schedule = smoke_schedule(default_node_ids("orderlesschain", num_orgs))
    config = ExperimentConfig(
        system="orderlesschain",
        app=apps[0],
        arrival_rate=per_channel_rate * len(apps),
        num_orgs=num_orgs,
        quorum=quorum,
        fault_schedule=schedule,
        check=True,
        resilience=resilience,
        max_retries=2 if resilience else 0,
        snapshot_interval=5.0 if resilience else 0.0,
        channels=tuple(
            ChannelSpec(f"ch{index}", app=app) for index, app in enumerate(apps)
        ),
        **_base(max(duration, schedule.horizon + 5.0), scale, seed),
    )
    return run_experiment(config)


def chaos_suite(
    systems: Sequence[str] = SYSTEMS_UNDER_CHAOS,
    app: str = "voting",
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
) -> Dict[str, ExperimentResult]:
    """The chaos smoke across every system; keyed by system name."""
    return {
        system: chaos_run(
            system=system, app=app, duration=duration, scale=scale, seed=seed
        )
        for system in systems
    }


__all__ = [
    "DEFAULT_ARRIVAL_RATES",
    "PAPER_ARRIVAL_RATES",
    "PAPER_FIG9_RATES",
    "PAPER_FIG10_RATES",
    "SYSTEMS_UNDER_CHAOS",
    "ablation_cache",
    "chaos_run",
    "chaos_suite",
    "ablation_fabric_orderer",
    "ablation_gossip_interval",
    "fig6a_arrival_rate",
    "fig6b_organizations",
    "fig6c_endorsement_policy",
    "fig6d_object_count",
    "fig7_latency_vs_throughput",
    "fig8_byzantine_orgs",
    "fig8_text_byzantine_clients",
    "fig9_comparison",
    "multichannel_chaos",
    "multichannel_scaling",
    "resilience_availability",
    "resource_utilization_comparison",
    "fig10_comparison",
    "table3_breakdown",
    "text_config_crdt_type",
    "text_config_gossip_ratio",
    "text_config_ops_per_object",
    "text_config_workload_mix",
    "text_config_workload_skew",
]
