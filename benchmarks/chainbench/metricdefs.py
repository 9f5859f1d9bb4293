"""Every metric chainbench reports: name, unit, clock, direction, bound.

One table drives the printed report, ``BENCHMARK.json`` and the
comparison tool, so a metric cannot be printed under one name and
bounded under another.

Two clocks, named apart. ``host`` metrics are host seconds (or bytes)
the *simulator* takes; they are noisy and are what a performance change
moves. ``sim`` metrics are simulated time and paper-scale rates the
*modelled protocol* takes; they repeat exactly for a given seed, a
host-only optimisation must leave every one of them bit-identical, and
a protocol change that moves one says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from chainbench.kernels import KERNELS
from chainbench.layers import LAYERS
from chainbench.workloads import WORKLOADS

RUN_SECONDS = 20


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # "host" | "sim"
    what: str
    # Share of the parent's median by which the metric may get worse
    # before a change counts as a regression; None = per-layer, unbounded.
    bound: Optional[float] = None


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", "host",
        "import repro.api + build the config + build_network (import + config only for "
        "kernel-baseline); median over the run's fresh subprocesses",
        bound=0.25,
    ),
    Metric(
        "wall_norm_s", "s", "lower", "host",
        "host seconds of the run_experiment(config) call, check=False, untraced: best of the "
        "run's fresh subprocesses, scaled by the calibration loop to the reference host's speed",
        bound=0.25,
    ),
    Metric(
        "commits_per_norm_s", "1/s", "higher", "host",
        "committed transactions per normalized host second: committed / wall_norm_s",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb", "MiB", "lower", "host",
        "ru_maxrss of the run's subprocess; median",
        bound=0.15,
    ),
    Metric(
        "sim_commit_tps", "1/s", "higher", "sim",
        "simulated paper-scale committed throughput (ExperimentResult.throughput_tps)",
        bound=0.06,
    ),
    Metric(
        "sim_modify_avg_ms", "ms", "lower", "sim",
        "simulated mean latency of committed modify transactions, timed from when each was due",
        bound=0.08,
    ),
    Metric(
        "sim_modify_p99_ms", "ms", "lower", "sim",
        "simulated 99th-percentile modify latency; the sample count is printed beside it, "
        "below 1000 samples read it as a high percentile, not a p99",
        bound=0.20,
    ),
    Metric(
        "committed_share", "ratio", "higher", "sim",
        "committed / submitted simulated transactions (1 - failed share; never zero)",
        bound=0.05,
    ),
)


def _per_layer() -> Tuple[Metric, ...]:
    metrics = []
    for layer in LAYERS:
        metrics += [
            Metric(f"{layer}.self_s", "s", "lower", "host",
                   f"profiled self time booked to repro/{layer} in the traced run"),
            Metric(f"{layer}.share", "ratio", "lower", "host",
                   f"{layer}.self_s as a share of the profiled total"),
            Metric(f"{layer}.calls", "count", "lower", "host",
                   f"calls of Python functions defined in repro/{layer} (exact)"),
        ]
    metrics += [
        Metric("trace.overhead_ratio", "ratio", "lower", "host",
               "traced wall / untraced host.wall_s: what profiling and tracing cost"),
        Metric("sim.events", "count", "lower", "sim", "callbacks the event loop executed"),
        Metric("sim.events_per_commit", "count", "lower", "sim", "sim.events / committed"),
        Metric("net.sent", "count", "lower", "sim", "messages handed to Network.send"),
        Metric("net.delivered", "count", "higher", "sim", "messages delivered to a handler"),
        Metric("net.dropped", "count", "lower", "sim", "messages dropped (down, partition, loss)"),
        Metric("net.msgs_per_commit", "count", "lower", "sim", "net.sent / committed"),
        Metric("crypto.canon_calls", "count", "lower", "host", "calls of canonical_bytes"),
        Metric("crypto.canon_hit_ratio", "ratio", "higher", "host",
               "fragment-cache hits / lookups (hashing_cache_info)"),
        Metric("crypto.sign_calls", "count", "lower", "sim", "calls of Identity.sign"),
        Metric("crypto.verify_calls", "count", "lower", "sim",
               "calls of CertificateAuthority.verify"),
        Metric("crypto.verify_hit_ratio", "ratio", "higher", "host",
               "1 - verify_signature calls / CertificateAuthority.verify calls"),
        Metric("crdt.apply_calls", "count", "lower", "sim", "calls of CRDTStore.apply"),
        Metric("ledger.commit_calls", "count", "lower", "sim", "calls of Ledger.commit"),
        Metric("core.validate_calls", "count", "lower", "sim",
               "calls of Organization.validate_transaction"),
        Metric("core.p1_execution_sim_ms", "ms", "lower", "sim",
               "mean simulated OrderlessChain phase 1 (execution) time"),
        Metric("core.p2_commit_sim_ms", "ms", "lower", "sim",
               "mean simulated OrderlessChain phase 2 (commit) time"),
        Metric("e2e.sim_read_avg_ms", "ms", "lower", "sim",
               "simulated mean read latency; -1 on a workload without reads"),
        Metric("e2e.failed_share", "ratio", "lower", "sim",
               "failed / submitted simulated transactions; 0 on fault-free workloads"),
    ]
    metrics += [
        Metric(name, "ns", "lower", "host", "layer kernel, best of 5 batches, ns per operation")
        for name in KERNELS
    ]
    metrics += [
        Metric("host.wall_s", "s", "lower", "host",
               "raw host seconds of run_experiment, best of this invocation's untraced runs"),
        Metric("host.wall_median_s", "s", "lower", "host",
               "median raw wall seconds over this invocation's untraced runs"),
        Metric("host.wall_iqr_s", "s", "lower", "host",
               "interquartile range of raw wall seconds over this invocation's untraced runs"),
        Metric("host.calib_s", "s", "lower", "host",
               "fixed pure-Python loop run around every measurement; fastest reading seen"),
    ]
    return tuple(metrics)


PER_LAYER: Tuple[Metric, ...] = _per_layer()

BY_NAME: Dict[str, Metric] = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict[str, Any]:
    """The contents of the repository's ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/chainbench/run.py"],
        "paths": ["benchmarks/chainbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why} for workload in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


__all__ = ["BY_NAME", "END_TO_END", "PER_LAYER", "RUN_SECONDS", "Metric", "benchmark_json"]
