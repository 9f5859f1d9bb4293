"""Shape assertions: the paper's qualitative claims, machine-checked.

Each check is a named function over the *records* a spec produced
(:func:`repro.report.spec.results_to_records` output), returning a
:class:`CheckOutcome`. A spec lists check names; the pipeline runs
them and derives the **verdict** rendered into EXPERIMENTS.md:
``reproduced`` when every check passes, ``NOT reproduced`` otherwise —
no hand-transcribed judgement anywhere.

The thresholds mirror the long-standing benchmark assertions
(``benchmarks/bench_*.py`` before the catalog refactor) and must hold
at both the full and the ``--quick`` operating points; they encode
*shapes* (who wins, what is flat, where knees fall), never absolute
numbers, per docs/CALIBRATION.md.

Checks receive a ``ctx`` mapping with the spec and its resolved run
parameters, for claims that depend on the configured grid (e.g. the
Figure 8 window marks scale with ``duration``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class CheckOutcome:
    """One check's result: a verdict with a human-readable reason."""

    name: str
    ok: bool
    detail: str

    def to_wire(self) -> Dict[str, Any]:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


CheckFn = Callable[[Any, Mapping[str, Any]], Tuple[bool, str]]

CHECKS: Dict[str, CheckFn] = {}


def register(name: str) -> Callable[[CheckFn], CheckFn]:
    """Register a check under ``name`` (decorator)."""

    def wrap(fn: CheckFn) -> CheckFn:
        if name in CHECKS:
            raise ValueError(f"duplicate check name {name!r}")
        CHECKS[name] = fn
        return fn

    return wrap


def run_checks(names: Sequence[str], records: Any, ctx: Mapping[str, Any]) -> List[CheckOutcome]:
    """Run the named checks; unknown names fail loudly, not silently."""
    outcomes = []
    for name in names:
        fn = CHECKS.get(name)
        if fn is None:
            outcomes.append(CheckOutcome(name, False, "unknown check (not registered)"))
            continue
        try:
            ok, detail = fn(records, ctx)
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failing check
            ok, detail = False, f"check raised {exc!r}"
        outcomes.append(CheckOutcome(name, ok, detail))
    return outcomes


def verdict(outcomes: Sequence[CheckOutcome]) -> str:
    """The mechanical verdict a section renders."""
    if not outcomes:
        return "measured (no shape checks registered)"
    failing = [outcome.name for outcome in outcomes if not outcome.ok]
    if failing:
        return "NOT reproduced (failing: " + ", ".join(failing) + ")"
    return "reproduced"


def assert_records(spec, records, overrides=None) -> None:
    """Benchmark-facing wrapper: raise AssertionError listing failures.

    ``overrides`` must mirror the overrides the records were produced
    with, so duration-dependent checks (Figure 8's window marks) see
    the run's actual parameters.
    """
    ctx = {"spec": spec, "params": spec.resolved_params(overrides=overrides)}
    outcomes = run_checks(spec.checks, records, ctx)
    failing = [outcome for outcome in outcomes if not outcome.ok]
    if failing:
        lines = [f"{len(failing)} shape check(s) failed for {spec.spec_id}:"]
        lines += [f"  {outcome.name}: {outcome.detail}" for outcome in failing]
        raise AssertionError("\n".join(lines))


# -- record accessors --------------------------------------------------------


def _lat(records) -> List[float]:
    return [r["latency_modify_avg_ms"] for r in records]


def _lat_read(records) -> List[float]:
    return [r["latency_read_avg_ms"] for r in records]


def _tput(records) -> List[float]:
    return [r["throughput_tps"] for r in records]


def _tput_mod(records) -> List[float]:
    return [r["throughput_modify_tps"] for r in records]


def _flat(values: Sequence[float], tolerance: float) -> Tuple[bool, str]:
    low, high = min(values), max(values)
    ok = high < tolerance * low
    return ok, f"max {high:.1f} vs min {low:.1f} (tolerance {tolerance}x)"


def _flat_check(series: Callable, tolerance: float) -> CheckFn:
    def check(records, ctx):
        return _flat(series(records), tolerance)

    return check


# Generic flatness checks, named by series and tolerance.
for _tol in (1.2, 1.25, 1.5):
    register(f"tput-flat-{_tol}")(_flat_check(_tput, _tol))
for _tol in (1.5, 1.6):
    register(f"lat-flat-{_tol}")(_flat_check(_lat, _tol))


# -- Figure 6 ---------------------------------------------------------------


@register("fig6a-tput-tracks-rate")
def _fig6a_tput(records, ctx):
    rates = [r["rate"] for r in records]
    tput = _tput(records)
    ok = tput[-1] > 2.5 * tput[0] and tput[-1] > 0.6 * rates[-1]
    return ok, f"tput {tput[0]:.0f} -> {tput[-1]:.0f} tps over rates {rates[0]}-{rates[-1]}"


@register("fig6a-latency-rises")
def _fig6a_lat(records, ctx):
    lat = _lat(records)
    return lat[-1] > lat[0], f"lat {lat[0]:.1f} -> {lat[-1]:.1f} ms"


@register("fig6c-latency-grows")
def _fig6c_lat(records, ctx):
    lat = _lat(records)
    return lat[-1] > 2.0 * lat[0], f"lat {lat[0]:.1f} -> {lat[-1]:.1f} ms at full quorum"


@register("fig6c-throughput-degrades")
def _fig6c_tput(records, ctx):
    tput = _tput(records)
    return tput[-1] < 0.95 * tput[0], f"tput {tput[0]:.0f} -> {tput[-1]:.0f} tps"


@register("fig6d-latency-grows")
def _fig6d_lat(records, ctx):
    lat = _lat(records)
    return lat[-1] > 1.5 * lat[0], f"lat {lat[0]:.1f} -> {lat[-1]:.1f} ms with object count"


# -- Figure 7 ---------------------------------------------------------------


@register("fig7-scales")
def _fig7_scales(records, ctx):
    details = []
    ok = True
    for name, series in records.items():
        tput = _tput(series)
        lat = _lat(series)
        series_ok = tput[-1] > 3 * tput[0] and max(lat) < 1500
        ok = ok and series_ok
        details.append(f"{name}: tput x{tput[-1] / max(tput[0], 1e-9):.1f}, max lat {max(lat):.0f} ms")
    return ok, "; ".join(details)


# -- Figure 8 ---------------------------------------------------------------


def _mean_tps(timeline, start, end) -> float:
    values = [tps for t, tps in timeline if start <= t < end]
    return sum(values) / max(1, len(values))


@register("fig8a-drop-and-recover")
def _fig8a(record, ctx):
    duration = ctx["params"]["duration"]
    marks = [duration * f for f in (30 / 180, 110 / 180, 150 / 180)]
    healthy = _mean_tps(record["timeline"], 0, marks[0])
    worst = _mean_tps(record["timeline"], marks[1], marks[2])
    recovered = _mean_tps(record["timeline"], marks[2], duration)
    ok = worst < 0.9 * healthy and recovered > 0.9 * healthy and record["failed"] > 0
    return ok, (
        f"healthy {healthy:.0f}, worst (f:3) {worst:.0f}, recovered {recovered:.0f} tps; "
        f"{record['failed']} failed"
    )


@register("fig8b-avoidance-holds")
def _fig8b(record, ctx):
    duration = ctx["params"]["duration"]
    marks = [duration * f for f in (30 / 180, 150 / 180)]
    healthy = _mean_tps(record["timeline"], 0, marks[0])
    byzantine_era = _mean_tps(record["timeline"], marks[0], marks[1])
    ok = byzantine_era > 0.85 * healthy
    return ok, f"healthy {healthy:.0f} vs Byzantine era {byzantine_era:.0f} tps"


@register("fig8t-safety-and-liveness")
def _fig8t(records, ctx):
    ok = True
    details = []
    for record in records:
        fraction = record["frac"]
        ok = ok and record["failed"] > 0
        if fraction != "100%":
            ok = ok and record["committed"] > 0 and record["latency_modify_avg_ms"] < 1000
        details.append(
            f"{fraction}: {record['committed']} committed, {record['failed']} failed"
        )
    return ok, "; ".join(details)


@register("fig8t-combined-degrades-safely")
def _fig8t_combined(records, ctx):
    record = records[0]
    ok = record["committed"] > 0 and record["failed"] > 0
    return ok, f"{record['committed']} committed, {record['failed']} failed"


# -- Figures 9 and 10 --------------------------------------------------------


@register("fig9-orderless-wins")
def _fig9_wins(records, ctx):
    orderless = _tput_mod(records["orderlesschain"])[-1]
    fabric = _tput_mod(records["fabric"])[-1]
    fabriccrdt = _tput_mod(records["fabriccrdt"])[-1]
    ok = orderless > 3 * fabric and orderless > 1.5 * fabriccrdt
    return ok, f"top-rate modify tput: orderless {orderless:.0f}, fabric {fabric:.0f}, fabriccrdt {fabriccrdt:.0f}"


@register("fig9-fabric-mvcc-fails")
def _fig9_mvcc(records, ctx):
    top = records["fabric"][-1]
    conflicts = top["failure_reasons"].get("mvcc conflict", 0)
    ok = conflicts > top["committed"] / 4
    return ok, f"{conflicts} MVCC conflicts vs {top['committed']} committed at the top rate"


@register("fig9-auction-wins")
def _fig9_auction_wins(records, ctx):
    """The auction variant of the win: contention on the highest-bid
    key still produces MVCC conflicts on Fabric, but fewer than
    voting's per-party pileup, so only conflict *presence* is claimed."""
    orderless = _tput_mod(records["orderlesschain"])[-1]
    fabric = _tput_mod(records["fabric"])[-1]
    conflicts = records["fabric"][-1]["failure_reasons"].get("mvcc conflict", 0)
    ok = orderless > 3 * fabric and conflicts > 0
    return ok, (
        f"top-rate modify tput: orderless {orderless:.0f} vs fabric {fabric:.0f}; "
        f"{conflicts} MVCC conflicts"
    )


@register("fig9-latency-shapes")
def _fig9_lat(records, ctx):
    orderless = _lat(records["orderlesschain"])
    fabric = _lat(records["fabric"])
    fabriccrdt = _lat(records["fabriccrdt"])
    ok = (
        max(orderless) < 2.5 * min(orderless)
        and fabric[-1] > 4 * fabric[0]
        and fabriccrdt[-1] > 4 * orderless[-1]
    )
    return ok, (
        f"orderless flat {min(orderless):.0f}-{max(orderless):.0f} ms; "
        f"fabric {fabric[0]:.0f} -> {fabric[-1]:.0f} ms; fabriccrdt top {fabriccrdt[-1]:.0f} ms"
    )


@register("fig10-orderless-flat")
def _fig10_flat(records, ctx):
    orderless = _lat(records["orderlesschain"])
    return _flat(orderless, 2.5)


@register("fig10-knees")
def _fig10_knees(records, ctx):
    bidl = _lat(records["bidl"])
    hotstuff = _lat(records["synchotstuff"])
    ok = bidl[-1] > 2.5 * bidl[0] and hotstuff[-1] > 2.5 * hotstuff[0]
    return ok, f"bidl {bidl[0]:.0f} -> {bidl[-1]:.0f} ms; hotstuff {hotstuff[0]:.0f} -> {hotstuff[-1]:.0f} ms"


@register("fig10-top-rate-ranking")
def _fig10_rank(records, ctx):
    orderless = _tput_mod(records["orderlesschain"])[-1]
    others = max(_tput_mod(records["bidl"])[-1], _tput_mod(records["synchotstuff"])[-1])
    return orderless >= others, f"orderless {orderless:.0f} vs best baseline {others:.0f} tps"


# -- Table 3 and resource utilization ----------------------------------------


@register("table3-coordination-dominates")
def _table3(records, ctx):
    orderless = records["orderlesschain"]
    fabric = records["fabric"]
    bidl = records["bidl"]
    hotstuff = records["synchotstuff"]
    orderless_total = (
        orderless["orderlesschain/P1/Execution"] + orderless["orderlesschain/P2/Commit"]
    )
    ok = (
        orderless["orderlesschain/P1/Execution"] < 500
        and orderless["orderlesschain/P2/Commit"] < 500
        and fabric["fabric/P2/Consensus"] > 10 * fabric["fabric/P1/Endorse"]
        and fabric["fabric/P2/Consensus"] > 10 * fabric["fabric/P3/Commit"]
        and fabric["fabric/P2/Consensus"] > 10 * orderless_total
        and bidl["bidl/P2/Consensus"] > bidl["bidl/P1/Sequence"]
        and bidl["bidl/P2/Consensus"] > bidl["bidl/P3/Execution"]
        and hotstuff["hotstuff/P1/Consensus"] > 10 * hotstuff["hotstuff/P2/Commit"]
    )
    return ok, (
        f"orderless total {orderless_total:.0f} ms vs fabric consensus "
        f"{fabric['fabric/P2/Consensus']:.0f} ms, bidl consensus "
        f"{bidl['bidl/P2/Consensus']:.0f} ms, hotstuff consensus "
        f"{hotstuff['hotstuff/P1/Consensus']:.0f} ms"
    )


@register("util-orderless-higher-bounded")
def _util(records, ctx):
    orderless, fabric = records["orderlesschain"], records["fabric"]
    ok = orderless > 1.3 * fabric and orderless < 0.9
    return ok, f"orderless {100 * orderless:.1f} % vs fabric {100 * fabric:.1f} % CPU"


# -- resilience (docs/RESILIENCE.md) -----------------------------------------


@register("resilience-adaptive-wins")
def _resilience_adaptive_wins(records, ctx):
    """Per seed, the adaptive arm commits strictly more than the fixed
    arm, and every oracle-checked run stays green."""
    by_label = {r["run"]: r for r in records}
    seeds = sorted(
        {label.split("/seed", 1)[1] for label in by_label if label.startswith("fixed/")}
    )
    if not seeds:
        return False, "no fixed/adaptive pairs found in the records"
    details = []
    ok = True
    for seed in seeds:
        fixed = by_label[f"fixed/seed{seed}"]
        adaptive = by_label[f"adaptive/seed{seed}"]
        wins = adaptive["committed"] > fixed["committed"]
        ok = ok and wins
        details.append(f"seed {seed}: {fixed['committed']} -> {adaptive['committed']}")
    unhealthy = [label for label, r in sorted(by_label.items()) if r.get("oracles_ok") is not True]
    if unhealthy:
        ok = False
        details.append("oracles red: " + ", ".join(unhealthy))
    return ok, "committed " + "; ".join(details)


@register("multichannel-throughput-scales")
def _multichannel_throughput_scales(records, ctx):
    """Aggregate committed transactions increase strictly monotonically
    with channel count at fixed per-channel load, and every oracle stays
    green."""
    try:
        ordered = sorted(records, key=lambda r: int(r["channels"]))
    except (KeyError, TypeError, ValueError):
        return False, "records missing an integer 'channels' x value"
    if len(ordered) < 2:
        return False, f"need at least two channel counts, got {len(ordered)}"
    committed = [(int(r["channels"]), r["committed"]) for r in ordered]
    ok = all(b[1] > a[1] for a, b in zip(committed, committed[1:]))
    red = [
        str(int(r["channels"])) for r in ordered if r.get("oracles_ok") is not True
    ]
    if red:
        ok = False
    detail = "committed " + " -> ".join(f"{n}ch:{c}" for n, c in committed)
    if red:
        detail += "; oracles red at channels " + ", ".join(red)
    return ok, detail


__all__ = [
    "CHECKS",
    "CheckOutcome",
    "assert_records",
    "register",
    "run_checks",
    "verdict",
]
