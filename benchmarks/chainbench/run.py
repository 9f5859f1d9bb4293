#!/usr/bin/env python3
"""chainbench — one command for every metric.

Full report (all five workloads, best-of-N host metrics, one traced run
per workload, the layer kernels)::

    python3 benchmarks/chainbench/run.py [--workload NAME]... [--seed 0]
        [--repeats 5] [--no-traced] [--smoke] [--out DIR]

One measured run of one workload, as the benchmark driver calls it (the
last line of standard output is one JSON object)::

    python3 benchmarks/chainbench/run.py --workload NAME --seed N
        --seconds S --trace 0|1

Both exit non-zero when a check fails. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

from chainbench import summary  # noqa: E402
from chainbench.kernels import KERNELS  # noqa: E402
from chainbench.layers import LAYERS, MISSING  # noqa: E402
from chainbench.metricdefs import BY_NAME, END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402
from chainbench.workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 150
MAX_RUNS_PER_INVOCATION = 12
SCHEMA = 1


class ChildFailed(RuntimeError):
    """A measurement subprocess exited non-zero or printed no record."""


# -- children ----------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    from chainbench import child

    workload = args.workload[0] if args.workload else None
    if args.child == "run":
        record = child.child_run(workload, args.seed, args.smoke)
    elif args.child == "traced":
        record = child.child_traced(workload, args.seed, args.smoke, args.out)
    else:
        record = child.child_kernels(args.smoke)
    print(json.dumps(record))
    return 0


def spawn(
    kind: str, workload: Optional[str], seed: int, smoke: bool, out: Optional[str] = None
) -> Dict[str, Any]:
    """Run one child to completion and return the record it printed."""
    command = [sys.executable, str(HERE / "run.py"), "--child", kind, "--seed", str(seed)]
    if workload:
        command += ["--workload", workload]
    if smoke:
        command.append("--smoke")
    if out:
        command += ["--out", out]
    # A fixed hash seed gives every child the same dict and set layout:
    # one less source of run-to-run timing noise. Determinism of the
    # simulated outputs under random hashing is tier-1's job, not ours.
    completed = subprocess.run(
        command,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise ChildFailed(f"{kind} child for {workload!r} exited {completed.returncode}")
    return json.loads(lines[-1])


def measure_untraced(
    workload: str, seed: int, smoke: bool, seconds: float, at_least: int
) -> List[Dict[str, Any]]:
    """Untraced runs, each in a fresh process, for about ``seconds``.

    Another run starts only while it is expected to end inside the
    budget, so a slower host gets fewer repeats, not a longer run.
    """
    runs: List[Dict[str, Any]] = []
    started = time.monotonic()
    longest = 0.0
    while len(runs) < MAX_RUNS_PER_INVOCATION:
        elapsed = time.monotonic() - started
        if len(runs) >= at_least and elapsed + longest > seconds:
            break
        runs.append(spawn("run", workload, seed, smoke))
        longest = max(longest, time.monotonic() - started - elapsed)
    return runs


# -- reporting ---------------------------------------------------------------


def _show(value: Any) -> str:
    if value == MISSING:
        return MISSING
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_end_to_end(name: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(f"\n== {name}: end to end")
    for metric in END_TO_END:
        entry = metrics[metric.name]
        extra = ""
        if "median" in entry:
            extra = f"  median {entry['median']:.6g}  iqr {entry['iqr']:.3g}  n {entry['n']}"
        elif "n" in entry:
            extra = f"  samples {entry['n']}"
        print(
            f"  {metric.name:<22} {_show(entry['value']):>12} {metric.unit:<5} "
            f"[{metric.clock}, {metric.better} is better]{extra}"
        )


def print_per_layer(name: str, values: Dict[str, Any]) -> None:
    print(f"\n== {name}: layer budget of the traced run (self time, share, calls)")
    for layer in sorted(LAYERS, key=lambda layer: -values[f"{layer}.share"]):
        print(
            f"  {layer:<11} {values[f'{layer}.self_s']:>9.4f} s  "
            f"{100 * values[f'{layer}.share']:>5.1f} %  {values[f'{layer}.calls']:>10} calls"
        )
    print(f"== {name}: boundary counts and host diagnostics")
    budget = {f"{layer}.{field}" for layer in LAYERS for field in ("self_s", "share", "calls")}
    _print_values(values, [m for m in PER_LAYER if m.name not in budget and m.name not in KERNELS])


def print_kernels(values: Dict[str, Any]) -> None:
    print("\n== layer kernels (ns per operation, best of 5 batches)")
    _print_values(values, [metric for metric in PER_LAYER if metric.name in KERNELS])


def _print_values(values: Dict[str, Any], metrics: List[Any]) -> None:
    for metric in metrics:
        print(f"  {metric.name:<28} {_show(values[metric.name]):>12} {metric.unit:<5} [{metric.clock}]")


def print_checks(name: str, checks: List[Dict[str, Any]]) -> None:
    for check in checks:
        mark = "ok" if check["ok"] else "FAILED"
        print(f"  check {check['name']:<30} {mark:<6} {check['detail']}")
    if not all(check["ok"] for check in checks):
        print(f"  ** {name}: a check FAILED", file=sys.stderr)


def environment() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "loadavg_at_start": list(os.getloadavg()),
    }


# -- driver mode: one workload, one JSON line -------------------------------


def driver_main(args: argparse.Namespace) -> int:
    if not args.workload or len(args.workload) != 1:
        print("--trace needs exactly one --workload", file=sys.stderr)
        return 2
    name = args.workload[0]
    seconds = 0.0 if args.smoke else args.seconds
    started = time.monotonic()
    if args.trace == 0:
        runs = measure_untraced(name, args.seed, args.smoke, seconds, at_least=1 if args.smoke else 2)
        entries, checks = summary.end_to_end(runs)
        print_end_to_end(name, entries)
        values = {metric: entry["value"] for metric, entry in entries.items()}
        attempted = len(runs)
    else:
        traced = spawn("traced", name, args.seed, args.smoke, args.out)
        kernels = spawn("kernels", None, args.seed, args.smoke)
        remaining = seconds - (time.monotonic() - started)
        runs = measure_untraced(name, args.seed, args.smoke, remaining, at_least=1)
        _, checks = summary.end_to_end(runs)
        values, layer_checks = summary.per_layer(runs, traced, kernels)
        checks += layer_checks
        print_per_layer(name, values)
        print_kernels(values)
        attempted = len(runs) + 2
    print_checks(name, checks)
    correct = all(check["ok"] for check in checks)
    # The operations this benchmark asks of the program are simulation
    # runs; a simulated request that times out under an injected fault
    # is a correct output of the simulator and is bounded by the
    # committed_share metric instead (README.md, "attempted and failed").
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            metric: {"value": -1 if value == MISSING else value, "unit": BY_NAME[metric].unit}
            for metric, value in values.items()
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


# -- suite mode: everything ---------------------------------------------------


def suite_main(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOADS)
    repeats = 1 if args.smoke else args.repeats
    out = args.out or str(HERE / "out")
    env = environment()
    started = time.monotonic()

    # Repeats are interleaved round-robin (rep 1 of every workload, then
    # rep 2, ...) so one noisy minute cannot own one workload.
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for repeat in range(repeats):
        for name in names:
            runs[name].append(spawn("run", name, args.seed, args.smoke))
            print(
                f"[{time.monotonic() - started:6.1f}s] {name} repeat {repeat + 1}/{repeats}: "
                f"{runs[name][-1]['wall_s']:.3f} s",
                file=sys.stderr,
            )
    traced: Dict[str, Dict[str, Any]] = {}
    kernels: Optional[Dict[str, Any]] = None
    if not args.no_traced:
        for name in names:
            traced[name] = spawn("traced", name, args.seed, args.smoke, out)
            print(f"[{time.monotonic() - started:6.1f}s] {name} traced", file=sys.stderr)
        kernels = spawn("kernels", None, args.seed, args.smoke)

    workloads: Dict[str, Any] = {}
    for name in names:
        entries, checks = summary.end_to_end(runs[name])
        for metric, entry in entries.items():
            definition = BY_NAME[metric]
            entry.update(
                unit=definition.unit,
                clock=definition.clock,
                better=definition.better,
                bound=definition.bound,
            )
        record: Dict[str, Any] = {"end_to_end": entries}
        print_end_to_end(name, entries)
        if kernels is not None:
            values, layer_checks = summary.per_layer(runs[name], traced[name], kernels)
            checks += layer_checks
            record["per_layer"] = values
            print_per_layer(name, values)
        # Every run made, host clock only (the simulated outputs are
        # identical across them, or a check above has failed).
        record["runs"] = [
            {key: value for key, value in run.items() if key != "sim"} for run in runs[name]
        ]
        sim = runs[name][0]["sim"]
        record["counts"] = {
            key: sim[key] for key in ("submitted", "committed", "failed", "failure_reasons")
        }
        record["checks"] = checks
        print_checks(name, checks)
        workloads[name] = record

    if kernels is not None:
        print_kernels(workloads[names[0]]["per_layer"])
    wall_total_s = time.monotonic() - started
    results = {
        "schema": SCHEMA,
        "benchmark": "chainbench",
        "seed": args.seed,
        "repeats": repeats,
        "smoke": args.smoke,
        "workloads": workloads,
        # Volatile facts live outside the metric payload so that two
        # result files diff cleanly.
        "environment": env,
        "wall_total_s": wall_total_s,
    }
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "results.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    correct = all(check["ok"] for record in workloads.values() for check in record["checks"])
    print(f"\nwrote {path}; total wall time {wall_total_s:.1f} s; "
          + ("all checks passed" if correct else "A CHECK FAILED"))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS), metavar="NAME",
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (ExperimentConfig.seed)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced runs per workload; host metrics are best-of-N (default 5)")
    parser.add_argument("--no-traced", action="store_true",
                        help="skip the traced runs and kernels (end-to-end metrics only)")
    parser.add_argument("--smoke", action="store_true",
                        help="functional pass: <=1 simulated second, 1 repeat, kernels at 1/50 size")
    parser.add_argument("--out", help="directory for results.json, *.budget.json, *.trace.json")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="with --trace: host seconds to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--child", choices=("run", "traced", "kernels"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"chainbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    try:
        if args.trace is not None:
            return driver_main(args)
        return suite_main(args)
    except (ChildFailed, subprocess.TimeoutExpired) as error:
        print(f"chainbench: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
