"""Turn child records into named metrics and pass/fail checks.

Host-clock timings are one-sided noisy on a shared box — the program is
deterministic and single-threaded, process CPU time tracks wall time,
so a slow run means the host was busy, never that the program did more
work. Two defences, both measured (README.md, "Run discipline"):

* the wall time of a workload is the *best* of its fresh-process
  repeats, which removes interference that comes and goes within
  seconds (median and interquartile range ride along as diagnostics);
* the best wall time is divided by the best reading of the calibration
  loop taken before and after those same runs, which removes about half
  of the minute-scale drift in the host's speed that a minimum cannot
  (100 same-seed runs in windows of five: spread 5 % raw, 2.5 % scaled).
  The result is scaled to seconds on a host whose calibration loop
  takes ``CALIB_REFERENCE_S``, so on the reference box ``wall_norm_s``
  reads like ``host.wall_s``.

Set-up time and memory are medians. Simulated-clock outputs must be
identical in every repeat, and the check fails when they are not.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from chainbench.child import CALIB_REFERENCE_S, P1_PHASE, P2_PHASE
from chainbench.kernels import KERNELS
from chainbench.layers import LAYERS, MISSING

BUDGET_TOLERANCE = 0.02

Check = Dict[str, Any]  # {"name", "ok", "detail"}


def spread(values: Sequence[float]) -> Tuple[float, float]:
    """(median, interquartile range); the range of one value is 0."""
    if len(values) < 2:
        return values[0], 0.0
    low, middle, high = statistics.quantiles(values, n=4)
    return middle, high - low


def _host(values: Sequence[float], value: float) -> Dict[str, Any]:
    median, iqr = spread(values)
    return {"value": value, "median": median, "iqr": iqr, "n": len(values)}


def end_to_end(runs: List[Dict[str, Any]]) -> Tuple[Dict[str, Dict[str, Any]], List[Check]]:
    """End-to-end metrics of one workload from its untraced runs."""
    sim = runs[0]["sim"]
    speed = CALIB_REFERENCE_S / min(run["calib_s"] for run in runs)
    walls = [run["wall_s"] * speed for run in runs]
    best = min(walls)
    rates = [sim["committed"] / wall for wall in walls]
    setups = [run["setup_s"] for run in runs]
    memory = [run["peak_rss_mb"] for run in runs]
    metrics = {
        "setup_s": _host(setups, statistics.median(setups)),
        "wall_norm_s": _host(walls, best),
        "commits_per_norm_s": _host(rates, sim["committed"] / best),
        "peak_rss_mb": _host(memory, statistics.median(memory)),
        "sim_commit_tps": {"value": sim["sim_commit_tps"]},
        "sim_modify_avg_ms": {"value": sim["sim_modify_avg_ms"], "n": sim["sim_modify_count"]},
        "sim_modify_p99_ms": {"value": sim["sim_modify_p99_ms"], "n": sim["sim_modify_count"]},
        "committed_share": {"value": sim["committed"] / sim["submitted"]},
    }
    differing = sum(1 for run in runs if run["sim"] != sim)
    checks = [
        {
            "name": "sim-identical-across-repeats",
            "ok": differing == 0,
            "detail": f"{len(runs)} runs, {differing} differ from the first",
        }
    ]
    return metrics, checks


def _ratio(numerator: Any, denominator: Any) -> Any:
    if MISSING in (numerator, denominator) or not denominator:
        return MISSING
    return numerator / denominator


def per_layer(
    runs: List[Dict[str, Any]], traced: Dict[str, Any], kernels: Dict[str, Any]
) -> Tuple[Dict[str, Any], List[Check]]:
    """Per-layer metrics of one workload: the traced run's budget and
    boundary counts, the layer kernels, and host diagnostics."""
    values: Dict[str, Any] = {}
    budget = traced["budget"]
    for layer in LAYERS:
        for field in ("self_s", "share", "calls"):
            values[f"{layer}.{field}"] = budget["layers"][layer][field]
    walls = [run["wall_s"] for run in runs]
    best = min(walls)
    values["trace.overhead_ratio"] = traced["traced_wall_s"] / best

    counts = traced["counts"]
    sim = traced["sim"]
    committed = sim["committed"]
    values["sim.events"] = counts["sim.events"]
    values["sim.events_per_commit"] = _ratio(counts["sim.events"], committed)
    for name in ("net.sent", "net.delivered", "net.dropped"):
        values[name] = counts[name]
    values["net.msgs_per_commit"] = _ratio(counts["net.sent"], committed)
    for name in (
        "crypto.canon_calls",
        "crypto.canon_hit_ratio",
        "crypto.sign_calls",
        "crypto.verify_calls",
        "crdt.apply_calls",
        "ledger.commit_calls",
        "core.validate_calls",
    ):
        values[name] = counts[name]
    misses = _ratio(counts["crypto.verify_signature_calls"], counts["crypto.verify_calls"])
    values["crypto.verify_hit_ratio"] = MISSING if misses == MISSING else 1.0 - misses
    values["core.p1_execution_sim_ms"] = sim["phase_means_ms"].get(P1_PHASE, MISSING)
    values["core.p2_commit_sim_ms"] = sim["phase_means_ms"].get(P2_PHASE, MISSING)
    read_avg = sim["sim_read_avg_ms"]
    values["e2e.sim_read_avg_ms"] = MISSING if read_avg is None else read_avg
    values["e2e.failed_share"] = sim["failed"] / sim["submitted"]

    for name in KERNELS:
        values[name] = kernels["kernels"][name]

    median, iqr = spread(walls)
    values["host.wall_s"] = best
    values["host.wall_median_s"] = median
    values["host.wall_iqr_s"] = iqr
    values["host.calib_s"] = min(record["calib_s"] for record in runs + [traced, kernels])

    booked = sum(budget["layers"][layer]["self_s"] for layer in LAYERS)
    total = budget["total_s"]
    failed_oracles = sorted(name for name, status in traced["oracles"].items() if status == "fail")
    checks = [
        {
            "name": "budget-sums-to-total",
            "ok": abs(booked - total) <= BUDGET_TOLERANCE * total,
            "detail": f"layers {booked:.4f} s of {total:.4f} s profiled",
        },
        {
            "name": "tracing-is-passive",
            "ok": traced["sim"] == runs[0]["sim"] == traced["sim_checked"],
            "detail": "traced and oracle-checked runs' simulated outputs equal the untraced run's",
        },
        {
            "name": "oracles-green",
            "ok": traced["oracles_ok"],
            "detail": f"{len(traced['oracles'])} oracles"
            + (f", failed: {', '.join(failed_oracles)}" if failed_oracles else ""),
        },
    ]
    return values, checks


__all__ = ["BUDGET_TOLERANCE", "end_to_end", "per_layer", "spread"]
