"""What runs inside one fresh subprocess.

Every (workload, repeat) gets a process of its own: the same
``mixed-default`` config took 6.6 s when it ran after ``endorse-heavy``
in one interpreter and 3.0 s alone — heap, GC and fragment-cache state
leak from one run into the next. Three kinds of child:

* ``run`` — calibrate, time set-up, time one untraced
  ``run_experiment(config)``; the end-to-end numbers come from here;
* ``traced`` — the same config again with a passive ``Observability``
  under a ``cProfile`` hook installed here around the
  ``run_experiment`` call (layer budget, boundary counts, span trace),
  then once more with ``check=True`` (oracle verdicts);
* ``kernels`` — the layer kernels.

The system is driven only through public entry points (``repro.api``,
``repro.obs``, ``repro.faults`` and each layer's public functions).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time
from typing import Any, Dict, Optional

from chainbench.workloads import build_config

P1_PHASE = "orderlesschain/P1/Execution"
P2_PHASE = "orderlesschain/P2/Commit"


CALIB_REFERENCE_S = 0.125


def calibrate() -> float:
    """Host seconds of a fixed pure-Python workload: a speedometer.

    Read before and after every untraced run, so that a slow run can be
    told from a slow machine and wall times can be scaled to one
    reference speed. Two parts: integer arithmetic, and JSON encoding
    with SHA-256 (what canonical hashing does). Both allocate next to
    nothing, on purpose: an allocation-heavy loop tracked the host's
    slow-downs no better and ran 58 % slower after a run than before
    it, so the speedometer would have read the program's heap. It takes
    about :data:`CALIB_REFERENCE_S` on the reference box when nothing
    else runs.
    """
    started = time.perf_counter()
    total = 0
    for index in range(1_200_000):
        total += index * index % 7
    payload: Dict[str, Any] = {
        "proposal": {"client_id": "client0", "params": {"objects": [1, 2, 3, 4]}},
        "write_set": [
            {"object_id": f"obj{index}", "value": index, "clock": {"client": "c0", "counter": index}}
            for index in range(8)
        ],
    }
    for index in range(2_500):
        payload["nonce"] = index
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        hashlib.sha256(encoded.encode()).hexdigest()
    return time.perf_counter() - started


def _number(value: float) -> Optional[float]:
    return None if math.isnan(value) else value


def sim_outputs(result: Any) -> Dict[str, Any]:
    """The simulated-clock outputs of one run: exact for a given seed."""
    return {
        "submitted": result.submitted,
        "committed": result.committed,
        "failed": result.failed,
        "failure_reasons": dict(sorted(result.failure_reasons.items())),
        "sim_commit_tps": result.throughput_tps,
        "sim_modify_avg_ms": _number(result.latency_modify.avg_ms),
        "sim_modify_p99_ms": _number(result.latency_modify.p99_ms),
        "sim_modify_count": result.latency_modify.count,
        "sim_read_avg_ms": _number(result.latency_read.avg_ms),
        "sim_read_count": result.latency_read.count,
        "phase_means_ms": dict(sorted(result.phase_means_ms.items())),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_run(workload: str, seed: int, smoke: bool) -> Dict[str, Any]:
    calib_s = calibrate()
    started = time.perf_counter()
    from repro.api import build_network, run_experiment

    config = build_config(workload, seed, smoke)
    if config.system == "orderlesschain":
        build_network(config)
    setup_s = time.perf_counter() - started

    cpu_started = time.process_time()
    started = time.perf_counter()
    result = run_experiment(config)
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    return {
        "calib_s": min(calib_s, calibrate()),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "sim": sim_outputs(result),
    }


def child_traced(workload: str, seed: int, smoke: bool, out: Optional[str]) -> Dict[str, Any]:
    """Two runs of the same config in one process.

    The first, ``check=False`` like the untraced run, executes under
    the profiler with a passive ``Observability`` attached: the layer
    budget and the boundary counts decompose *that* run. The second,
    unprofiled, sets ``check=True``: the oracles replay every ledger,
    which on ``state-heavy`` costs more than the run itself and would
    otherwise be booked to ``crdt`` and ``core`` as if the protocol had
    spent it. Both runs' simulated outputs are returned and must agree.
    """
    import cProfile
    import pstats

    from chainbench import layers

    calib_s = calibrate()
    import repro
    from repro.api import run_experiment
    from repro.crypto.hashing import hashing_cache_info
    from repro.obs import Observability

    obs = Observability(trace=True, sample_interval=1.0)
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        result = run_experiment(build_config(workload, seed, smoke), obs=obs)
    finally:
        profiler.disable()
    traced_wall_s = time.perf_counter() - started
    cache = hashing_cache_info()

    stats = pstats.Stats(profiler).stats
    budget = layers.attribute(stats, os.path.dirname(repro.__file__))
    counts = layers.boundary_counts(stats)
    counts["sim.events"] = layers.events_run(stats)
    for name in ("net/sent", "net/delivered", "net/dropped"):
        series = obs.trace.series(name)
        counts[name.replace("/", ".")] = series[-1][1] if series else layers.MISSING
    lookups = cache["hits"] + cache["misses"]
    counts["crypto.canon_hit_ratio"] = cache["hits"] / lookups if lookups else layers.MISSING

    checked = run_experiment(build_config(workload, seed, smoke, check=True))
    report = checked.check_report
    record = {
        "calib_s": calib_s,
        "traced_wall_s": traced_wall_s,
        "budget": budget,
        "counts": counts,
        "oracles": {entry.name: entry.status for entry in report.results},
        "oracles_ok": report.ok,
        "sim": sim_outputs(result),
        "sim_checked": sim_outputs(checked),
    }
    if out:
        from repro.obs.chrome import write_chrome_trace

        os.makedirs(out, exist_ok=True)
        write_chrome_trace(obs.trace, os.path.join(out, f"{workload}.trace.json"))
        with open(os.path.join(out, f"{workload}.budget.json"), "w") as handle:
            json.dump(
                {"workload": workload, "seed": seed, "traced_wall_s": traced_wall_s, **budget},
                handle,
                indent=1,
            )
            handle.write("\n")
    return record


def child_kernels(smoke: bool) -> Dict[str, Any]:
    from chainbench.kernels import run_kernels

    calib_s = calibrate()
    return {"calib_s": calib_s, "kernels": run_kernels(smoke)}


__all__ = ["CALIB_REFERENCE_S", "calibrate", "child_kernels", "child_run", "child_traced", "sim_outputs"]
