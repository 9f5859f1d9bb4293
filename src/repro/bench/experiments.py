"""Panel builders and the one executor (the E1-E16 index in DESIGN.md).

A panel of the paper's evaluation is a list of labelled configs. Each
builder below returns ``(series, x, config)`` points and contributes
only what is particular to its panel: which
:class:`~repro.bench.config.ExperimentConfig` field varies, which are
fixed, how a point is labelled and, for comparisons, what the series
are. The values a builder varies over are not its own: they arrive as
``grid`` from the panel's spec in :mod:`repro.report.catalog` — the one
registry of panels, read by ``repro run`` and ``repro report`` — so the
spec hash covers them.
:func:`run_points` is the one executor that turns points into results.

Rates and sizes are paper-scale; the ``scale`` parameter (default from
``REPRO_BENCH_SCALE``, see DESIGN.md) makes the runs laptop-sized while
preserving utilization, contention, and therefore shape.

Durations in the catalog are a fraction of the paper's 180 s so the
full suite completes quickly; override ``duration=180`` for the paper's
length.

``jobs`` is the number of worker processes :func:`run_points` hands to
:func:`repro.bench.parallel.run_sweep` (default 1 = serial). Results
are identical for any job count — each point is an isolated, seeded
simulation (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.config import (
    ByzantineWindow,
    ChannelSpec,
    ExperimentConfig,
    default_scale,
)
from repro.bench.metrics import ExperimentResult
from repro.bench.parallel import expect_results, run_sweep
from repro.bench.runner import run_experiment
from repro.faults import FaultSchedule, default_node_ids, fault_run, smoke_schedule

# One point of a panel: (series, x, config). ``series`` is None except
# for comparison / breakdown / scalar panels; ``x`` is the point's label
# on the panel's axis (None where the panel has no axis).
Point = Tuple[Optional[str], object, ExperimentConfig]
SweepResult = List[Tuple[object, ExperimentResult]]


def run_points(kind: str, points: Sequence[Point], jobs: int = 1):
    """The one executor: simulate every point, shape the results by ``kind``.

    * ``sweep`` — ``[(x, result), ...]``;
    * ``comparison`` — ``{series: [(x, result), ...]}``;
    * ``timeline`` — the single point's result;
    * ``breakdown`` — ``{series: result.phase_means_ms}``;
    * ``scalar`` — ``{series: mean organization CPU utilization}``.

    All points run as one flat :func:`run_sweep`, so parallel workers
    stay busy across series boundaries.
    """
    runs = expect_results(run_sweep([config for _, _, config in points], jobs=jobs))
    if kind == "timeline":
        return runs[0]
    if kind == "sweep":
        return [(x, result) for (_, x, _), result in zip(points, runs)]
    if kind == "breakdown":
        return {name: result.phase_means_ms for (name, _, _), result in zip(points, runs)}
    if kind == "scalar":
        return {
            name: result.extra.get("mean_org_cpu_utilization", 0.0)
            for (name, _, _), result in zip(points, runs)
        }
    series: Dict[str, SweepResult] = {}
    for (name, x, _), result in zip(points, runs):
        series.setdefault(name, []).append((x, result))
    return series


def _base(duration: float, scale: Optional[float] = None, seed: int = 0) -> Dict[str, object]:
    return {
        "duration": duration,
        "scale": scale if scale is not None else default_scale(),
        "seed": seed,
    }


def _synthetic(base: Dict[str, object], **fields) -> ExperimentConfig:
    return ExperimentConfig(
        system="orderlesschain", app="synthetic", **fields, **_base(**base)
    )


def _application(
    system: str, app: str, num_orgs: int, rate: float, base: Dict[str, object]
) -> ExperimentConfig:
    """An application run under EP {4 of ``num_orgs``}."""
    return ExperimentConfig(
        system=system, app=app, num_orgs=num_orgs, quorum=4, arrival_rate=rate, **_base(**base)
    )


def _vary(
    field: str,
    grid: Sequence[object],
    base: Dict[str, object],
    label: Optional[Callable[[object], object]] = None,
    **fixed,
) -> List[Point]:
    """A one-variable sweep of the synthetic application: ``field``
    takes each ``grid`` value, ``fixed`` pins others, ``label`` names x."""
    return [
        (None, label(value) if label else value, _synthetic(base, **{field: value}, **fixed))
        for value in grid
    ]


# -- E1-E4, Figure 6: one control variable at a time ------------------------


def fig6a_arrival_rate(grid, **base) -> List[Point]:
    return _vary("arrival_rate", grid, base)


def fig6b_organizations(grid, **base) -> List[Point]:
    """Number of organizations under EP {4 of n}."""
    return _vary("num_orgs", grid, base, quorum=4)


def fig6c_endorsement_policy(grid, **base) -> List[Point]:
    """Endorsement policy {q of 16}."""
    return _vary("quorum", grid, base, label="{} of 16".format, num_orgs=16)


def fig6d_object_count(grid, **base) -> List[Point]:
    return _vary("obj_count", grid, base)


# -- E5, configurations 5-9 (reported in the text of Section 9) ------------------


def text_config_ops_per_object(grid, **base) -> List[Point]:
    """Config 5: operations per object (text: unaffected)."""
    return _vary("ops_per_obj", grid, base)


def text_config_crdt_type(grid, **base) -> List[Point]:
    """Config 6: CRDT type (text: independent of type)."""
    return _vary("crdt_type", grid, base)


def text_config_workload_mix(grid, **base) -> List[Point]:
    """Config 7: read/modify mix from R10M90 to R90M10 (text: unaffected).

    ``grid`` holds the modify percentages.
    """
    return [
        (None, f"R{100 - pct}M{pct}", _synthetic(base, modify_ratio=pct / 100.0))
        for pct in grid
    ]


def text_config_workload_skew(**base) -> List[Point]:
    """Config 8: uniform vs normally-distributed load per organization."""
    uniform = _synthetic(base)
    # A bell over the organization indexes: middle orgs get more load.
    n = uniform.num_orgs
    weights = tuple(math.exp(-(((i - (n - 1) / 2) / (n / 4)) ** 2)) for i in range(n))
    return [(None, "uniform", uniform), (None, "normal", uniform.with_(org_weights=weights))]


def text_config_gossip_ratio(grid, **base) -> List[Point]:
    """Config 9: gossip ratio 1..15 organizations (text: no change)."""
    return _vary("gossip_fanout", grid, base)


# -- E6, Figure 7: latency vs throughput for 16/24/32 organizations ---------------


def fig7_latency_vs_throughput(org_counts, grid, **base) -> List[Point]:
    """One series per organization count, EP {4 of n}, over the rate grid."""
    return [
        (
            f"{num_orgs} orgs",
            rate,
            _synthetic(base, num_orgs=num_orgs, quorum=4, arrival_rate=rate),
        )
        for num_orgs in org_counts
        for rate in grid
    ]


# -- E7, Figure 8: Byzantine organizations over time ------------------------------


def fig8_byzantine_orgs(
    avoidance: bool, duration: float, scale: Optional[float] = None, seed: int = 0
) -> List[Point]:
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
        byzantine_org_windows=windows,
        avoid_byzantine=avoidance,
        max_retries=1 if avoidance else 0,
        timeline_bucket=duration / 18,
        **_base(duration, scale, seed),
    )
    return [(None, None, config)]


def fig8_text_byzantine_clients(grid, with_byzantine_orgs: bool = False, **base) -> List[Point]:
    """E8: Byzantine client fractions 50/75/100 %, optionally with
    three Byzantine organizations (Table 2 rows 11-12)."""
    windows = (
        (ByzantineWindow(count=3, start=0.0, end=None),) if with_byzantine_orgs else ()
    )
    return _vary(
        "byzantine_client_fraction",
        grid,
        base,
        label=lambda fraction: f"{int(fraction * 100)}%",
        byzantine_client_faults=("proposal_only", "tamper"),
        byzantine_org_windows=windows,
    )


# -- E9-E12, Figures 9 and 10: voting and auction across systems --------------------


def _comparison(
    systems: Sequence[str], num_orgs: int, app: str, grid: Sequence[float], seed: int = 0, **base
) -> List[Point]:
    """Shared system-comparison grid for Figures 9 and 10.

    Known quirk, kept on purpose: a point is seeded ``seed + int(rate)``,
    not ``seed``. The seed is a simulated input; changing it would move
    every committed comparison number.
    """
    return [
        (system, rate, _application(system, app, num_orgs, rate, {**base, "seed": seed + int(rate)}))
        for system in systems
        for rate in grid
    ]


def fig9_comparison(app: str, grid, **base) -> List[Point]:
    """OrderlessChain vs Fabric vs FabricCRDT, 8 orgs, EP {4 of 8}."""
    return _comparison(("orderlesschain", "fabric", "fabriccrdt"), 8, app, grid, **base)


def fig10_comparison(app: str, grid, **base) -> List[Point]:
    """OrderlessChain vs BIDL vs Sync HotStuff, 16 orgs, EP {4 of 16}."""
    return _comparison(("orderlesschain", "bidl", "synchotstuff"), 16, app, grid, **base)


# -- E13, Table 3: transaction processing time breakdown -----------------------------


def table3_breakdown(**base) -> List[Point]:
    """Phase means per system at the paper's operating points.

    OrderlessChain and Fabric at 2500 tps voting (8 orgs, EP {4 of 8});
    BIDL and Sync HotStuff at 4000 tps voting (16 orgs).
    """
    operating_points = (
        ("orderlesschain", 2500, 8),
        ("fabric", 2500, 8),
        ("bidl", 4000, 16),
        ("synchotstuff", 4000, 16),
    )
    return [
        (system, None, _application(system, "voting", num_orgs, rate, base))
        for system, rate, num_orgs in operating_points
    ]


def resource_utilization_comparison(**base) -> List[Point]:
    """Section 9's resource-utilization observation: at 2500 tps voting,
    OrderlessChain organizations run at higher CPU utilization than
    Fabric organizations (the paper reports ~50 % vs ~30 %), because of
    applying CRDT operations to the cache — and the extra utilization
    is bounded by the cache lock's serialization."""
    return [
        (system, None, _application(system, "voting", 8, 2500, base))
        for system in ("orderlesschain", "fabric")
    ]


# -- E15, ablations of DESIGN.md's design choices ---------------------------------------


def ablation_gossip_interval(grid, **base) -> List[Point]:
    """Gossip period sweep (the paper fixes it at 1 s)."""
    return _vary("gossip_interval", grid, base)


# -- chaos: fault schedules + invariant oracles (docs/FAULTS.md) ---------------


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
        **_base(duration, scale, seed),
    )
    return run_experiment(fault_run(config))


def resilience_availability(
    grid: Sequence[int],
    app: str = "voting",
    arrival_rate: float = 400.0,
    num_orgs: int = 4,
    quorum: int = 2,
    duration: float = 20.0,
    scale: Optional[float] = None,
    seed: int = 0,
) -> List[Point]:
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
    seeds = tuple(seed + offset for offset in grid)
    return [
        (
            None,
            f"{mode}/seed{run_seed}",
            fault_run(
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
                    **_base(duration, scale, run_seed),
                )
            ),
        )
        for mode in ("fixed", "adaptive")
        for run_seed in seeds
    ]


def multichannel_scaling(
    grid: Sequence[int],
    apps: Sequence[str] = ("synthetic", "voting"),
    per_channel_rate: float = 400.0,
    num_orgs: int = 4,
    quorum: int = 2,
    duration: float = 10.0,
    scale: Optional[float] = None,
    seed: int = 0,
) -> List[Point]:
    """Aggregate committed throughput vs channel count at fixed
    per-channel load.

    Each point deploys ``n`` channels on one OrderlessChain network
    (channel ``ch{i}`` runs ``apps[i % len(apps)]``) and drives every
    channel at ``per_channel_rate`` tx/s, so the offered load grows
    linearly with ``n``. Channels share each organization's one
    ledger, CPU and cache lock (a channel scopes only contract and
    object ids), so the panel shows that the extra applications do not
    interfere while the load stays below saturation: the
    ``multichannel-throughput-scales`` check asserts committed
    transactions increase monotonically 1 -> N while the convergence
    and ledger-integrity oracles stay green. Labels are the channel
    counts (the panel's x axis).
    """
    return [
        (
            None,
            str(count),
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
            ),
        )
        for count in grid
    ]


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
    loss schedule. All applications share each organization's one
    ledger, so the convergence and ledger-integrity oracles that check
    it cover every channel: a pass means each application's replicas
    converged despite the faults.
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
        **_base(duration, scale, seed),
    )
    return run_experiment(fault_run(config))


__all__ = [
    "Point",
    "ablation_gossip_interval",
    "chaos_run",
    "fig6a_arrival_rate",
    "fig6b_organizations",
    "fig6c_endorsement_policy",
    "fig6d_object_count",
    "fig7_latency_vs_throughput",
    "fig8_byzantine_orgs",
    "fig8_text_byzantine_clients",
    "fig9_comparison",
    "fig10_comparison",
    "multichannel_chaos",
    "multichannel_scaling",
    "resilience_availability",
    "resource_utilization_comparison",
    "run_points",
    "table3_breakdown",
    "text_config_crdt_type",
    "text_config_gossip_ratio",
    "text_config_ops_per_object",
    "text_config_workload_mix",
    "text_config_workload_skew",
]
