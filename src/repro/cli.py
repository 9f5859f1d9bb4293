"""Command-line interface: run experiments and demos from a shell.

``list`` and ``run`` read the experiment catalog
(``repro.report.catalog``): every panel of EXPERIMENTS.md is runnable
by its spec id or group, plus the one non-catalog entry ``chaos``.

Usage::

    python -m repro list
    python -m repro run fig6a --duration 15 --scale 20
    python -m repro run fig9 table3 --output results.json
    python -m repro run fig9-auction
    python -m repro trace --system orderlesschain --trace-out trace.json
    python -m repro report --quick --jobs 2
    python -m repro report --quick --check
    python -m repro check-iconfluence voting
    python -m repro explore --executions 50 --strategy coverage
    python -m repro explore --replay bug.schedule.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bench import experiments
from repro.bench.config import APPS, SYSTEMS
from repro.errors import ConfigError
from repro.explore.plant import PLANTED_BUGS
from repro.report.catalog import all_specs, select_specs
from repro.report.checks import run_checks
from repro.report.render import breakdown_table, render_checks, render_table, table

# The one runnable entry that is not a catalog panel.
CHAOS = "chaos"

# Flags only ``chaos`` reads, with their defaults: catalog panels fix
# their own systems, application and faults.
CHAOS_FLAGS = {
    "faults": None,
    "resilience": False,
    "max_retries": 0,
    "snapshot_interval": 0.0,
    "system": None,
    "app": "voting",
}


def _run_chaos(args):
    """Fault schedules + invariant oracles (docs/FAULTS.md)."""
    from repro.faults import FaultSchedule

    faults = getattr(args, "faults", None)
    schedule = FaultSchedule.from_file(faults) if faults else None
    systems = [args.system] if args.system else list(SYSTEMS)
    knobs = {
        "resilience": getattr(args, "resilience", False),
        "max_retries": getattr(args, "max_retries", 0),
        "snapshot_interval": getattr(args, "snapshot_interval", 0.0),
    }
    lines: List[str] = []
    payload: List[Dict] = []
    failed = False
    for system in systems:
        # Only OrderlessChain reads these knobs: a sweep of every system
        # gives them to it alone, a named baseline is a config error.
        result = experiments.chaos_run(
            system=system,
            app=args.app,
            schedule=schedule,
            **(knobs if args.system or system == "orderlesschain" else {}),
            **_overrides(args),
        )
        report = result.check_report
        failed = failed or not report.ok
        lines.append(report.format())
        lines.append(f"  fingerprint: {result.fingerprint}")
        lines.append("")
        payload.append(
            {
                "system": system,
                "fingerprint": result.fingerprint,
                "report": report.to_wire(),
                "result": result.to_record(),
            }
        )
    lines.append("chaos: FAILED" if failed else "chaos: all oracles passed")
    return "\n".join(lines), payload, (1 if failed else 0)


def _write_json(path: str, payload: object) -> None:
    with open(path, "w") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _overrides(args) -> Dict[str, object]:
    """``--duration`` / ``--scale`` / ``--seed`` as spec overrides.

    An omitted ``--duration`` or ``--scale`` leaves the spec's own value
    in place; ``--seed`` defaults to 0, which is every spec's own seed.
    """
    given = {"duration": args.duration, "scale": args.scale, "seed": args.seed}
    return {key: value for key, value in given.items() if value is not None}


def _run_selection(names: List[str], args) -> Iterator[Tuple[str, str, object, int]]:
    """Run the named panels: ``(id, printable text, JSON payload, exit
    code)`` per catalog spec in catalog order, then ``chaos`` if named.
    A panel's text is its table, its check outcomes and its verdict;
    a failed check does not change the exit code (``report --check`` is
    the gate).

    A chaos-only flag without ``chaos`` among ``names`` is a
    ``ConfigError``: no selected entry would read it.
    """
    if CHAOS not in names:
        unread = [
            "--" + flag.replace("_", "-")
            for flag, default in CHAOS_FLAGS.items()
            if getattr(args, flag, default) != default
        ]
        if unread:
            raise ConfigError(
                f"{', '.join(unread)}: read only by {CHAOS}, which is not selected"
                " (catalog panels fix their own)"
            )
    catalog_names = [name for name in names if name != CHAOS]
    # select_specs([]) would mean the whole catalog, not none of it.
    overrides = _overrides(args)
    for spec in select_specs(catalog_names) if catalog_names else ():
        records = spec.run(jobs=args.jobs, overrides=overrides)
        ctx = {"spec": spec, "params": spec.resolved_params(overrides=overrides)}
        checks = render_checks(run_checks(spec.checks, records, ctx))
        text = f"== {spec.section_title} ==\n\n{render_table(spec, records)}\n\n{checks}"
        yield spec.spec_id, text, records, 0
    if CHAOS in names:
        yield (CHAOS, *_run_chaos(args))


def _experiment_name(name: str) -> str:
    """argparse type for ``run``: a spec id, a group, or chaos."""
    if name != CHAOS:
        try:
            select_specs([name])
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(f"{exc} or {CHAOS}") from None
    return name


# -- shared flags ------------------------------------------------------------
#
# ``run``, ``explore``, and ``report`` all take subsets of
# the same four flags; one table keeps their spelling, default, and
# help text identical everywhere (tests/core/test_cli.py pins this).


def _add_common_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    adders = {
        "system": lambda: sub.add_argument(
            "--system",
            choices=SYSTEMS,
            default=None,
            help=f"restrict to one system ({CHAOS} and explore only; catalog"
            " panels fix their own)",
        ),
        "app": lambda: sub.add_argument(
            "--app",
            choices=APPS,
            default="voting",
            help=f"application contract and workload ({CHAOS} and explore only;"
            " catalog panels fix their own, pick e.g. fig9-auction by id)",
        ),
        "seed": lambda: sub.add_argument(
            "--seed", type=int, default=0, help="base RNG seed"
        ),
        "jobs": lambda: sub.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for sweeps (default 1)",
        ),
    }
    for name in names:
        adders[name]()


def _cmd_list(args) -> int:
    print("available experiments:")
    for spec in all_specs():
        group = f" [{spec.group}]" if spec.group else ""
        print(f"  {spec.spec_id:<17} {spec.section_title}{group}")
    print(f"  {CHAOS:<17} fault schedule + invariant oracles, all systems")
    return 0


def _cmd_run(args) -> int:
    payloads = {}
    code = 0
    for name, text, payload, exit_code in _run_selection(args.experiment, args):
        print(text)
        print()
        payloads[name] = payload
        # chaos fails the invocation when an oracle fails.
        code = max(code, exit_code)
    if args.output:
        # One panel writes its records bare; several, one entry per id.
        single = len(payloads) == 1
        _write_json(args.output, next(iter(payloads.values())) if single else payloads)
        print(f"wrote {args.output}")
    return code


def _cmd_trace(args) -> int:
    """Run one traced experiment and export/inspect its trace."""
    from dataclasses import asdict

    from repro.bench.config import ExperimentConfig
    from repro.bench.metrics import summarize_samples
    from repro.bench.runner import run_experiment
    from repro.obs import Observability
    from repro.obs.chrome import (
        load_chrome_trace,
        phase_means_from_trace,
        write_chrome_trace,
    )
    from repro.obs.schema import validate_chrome_trace

    kwargs = dict(
        system=args.system,
        app=args.app,
        arrival_rate=args.rate,
        num_orgs=args.orgs,
        quorum=args.quorum,
        duration=args.duration,
        seed=args.seed,
    )
    if args.scale is not None:
        kwargs["scale"] = args.scale
    obs = Observability(trace=True, sample_interval=args.sample_interval)
    result = run_experiment(ExperimentConfig(**kwargs), obs=obs)
    collector = obs.trace
    payload = write_chrome_trace(collector, args.trace_out)
    print(
        f"wrote {args.trace_out} "
        f"({len(payload['traceEvents'])} events; open in chrome://tracing or ui.perfetto.dev)"
    )
    errors = validate_chrome_trace(payload)
    if errors:
        for error in errors:
            print(f"schema violation: {error}", file=sys.stderr)
        return 1
    summary = [[result.system, result.app, result.arrival_rate, result.throughput_tps, result.failed]]
    print("\n" + table(["system", "app", "rate (tps)", "tput (tps)", "failed"], summary))
    # Regenerated from the exported file, not the in-memory collector:
    # the trace JSON alone carries the Table-3-style breakdown.
    means = phase_means_from_trace(load_chrome_trace(args.trace_out))
    print(f"\n== phase breakdown ({args.system}, regenerated from trace) ==\n")
    print(breakdown_table({args.system: means}))
    # Metric names and units: docs/OBSERVABILITY.md.
    series = summarize_samples(collector)
    rows = [[s.name, s.node, f"{s.mean:.3f}", f"{s.peak:.3f}"] for s in series]
    hint = "(no samples recorded; enable sampling with --sample-interval)"
    print("\n== node time-series metrics ==\n")
    print(table(["metric", "node", "mean", "peak"], rows) if rows else hint)
    if args.metrics_out:
        _write_json(
            args.metrics_out,
            {"phase_means_ms": means, "node_series": [asdict(stats) for stats in series]},
        )
        print(f"\nwrote {args.metrics_out}")
    return 0


def _cmd_report(args) -> int:
    """Regenerate (or drift-check) EXPERIMENTS.md from the catalog.

    See docs/REPORT.md. ``--figures`` takes spec ids or groups from
    ``repro.report.catalog``; everything else is cached, rendered, and
    checked per the pipeline's contract.
    """
    from pathlib import Path

    from repro.report.pipeline import run_report

    collector = None
    if args.trace_out:
        from repro.obs.trace import TraceCollector

        collector = TraceCollector()
    figures = [name for entry in args.figures or [] for name in entry.split(",") if name]
    outcome = run_report(
        figures=figures,
        jobs=args.jobs,
        quick=args.quick,
        check=args.check,
        experiments_md=Path(args.experiments_md),
        manifest_path=Path(args.manifest),
        cache_dir=Path(args.cache_dir),
        collector=collector,
    )
    if collector is not None:
        from repro.obs.chrome import write_chrome_trace

        payload = write_chrome_trace(collector, args.trace_out)
        print(f"wrote {args.trace_out} ({len(payload['traceEvents'])} events)")
    return outcome.exit_code


def _cmd_explore(args) -> int:
    """Schedule exploration: fuzz interleavings, minimize, replay.

    See docs/TESTING.md. Exit codes: 0 = no violation (or a replay
    that reproduced its artifact), 1 = violation found (artifact
    written) or replay mismatch, 2 = a malformed artifact (``main``
    prints every ``ConfigError`` as one ``error:`` line).
    """
    from repro.explore import explore, replay

    if args.replay:
        result = replay(args.replay)
        case = result.artifact.case
        print(f"replaying {args.replay}: {case.system}/{case.app} seed={case.seed}")
        print(f"  expected fingerprint: {result.artifact.fingerprint}")
        print(f"  replayed fingerprint: {result.fingerprint}")
        print(f"  deterministic: {result.deterministic}")
        print(f"  failing oracles: {', '.join(result.failures) or '(none)'}")
        if result.reproduced:
            print("replay: reproduced")
            return 0
        print("replay: MISMATCH — the counterexample did not reproduce")
        return 1

    systems = [args.system] if args.system else list(SYSTEMS)
    outcome = explore(
        systems=systems,
        app=args.app,
        executions=args.executions,
        strategy=args.strategy,
        seed=args.seed,
        duration=args.duration,
        scale=args.scale,
        jobs=args.jobs,
        out_dir=args.out_dir,
        planted_bug=args.plant_bug,
    )
    print(
        f"explored {outcome.executions} execution(s) over {', '.join(outcome.systems)} "
        f"({outcome.strategy}); {outcome.unique_signatures} unique signature(s)"
    )
    if not outcome.found:
        print("no invariant violation found")
        return 0
    artifact = outcome.violation
    print(f"violation: {', '.join(artifact.failures)} on {artifact.case.system}")
    print(
        f"  minimized with {outcome.minimize_executions} extra execution(s): "
        f"{len(artifact.case.fault_schedule)} fault event(s), profile "
        f"{'active' if artifact.case.explore.active else 'off'}"
    )
    print(f"  fingerprint: {artifact.fingerprint}")
    print(f"  replay verified: {outcome.replay_verified}")
    print(f"  wrote {outcome.artifact_path}")
    print(f"  reproduce with: python -m repro explore --replay {outcome.artifact_path}")
    return 1


def _cmd_check_iconfluence(args) -> int:
    from repro.contracts import AuctionContract, VotingContract
    from repro.tools import check_iconfluence

    if args.contract == "voting":
        contract = VotingContract(parties_per_election=3)
        invocations = [
            (f"voter{i}", "vote", {"party": f"party{i % 3}", "election": "e"}) for i in range(6)
        ] + [("voter0", "vote", {"party": "party1", "election": "e"})]

        def invariant(store):
            counted = 0
            for party in range(3):
                party_map = store.read(f"voting/e/party{party}") or {}
                counted += sum(1 for value in party_map.values() if value is True)
            return counted <= 6
    else:
        contract = AuctionContract()
        invocations = [
            (f"bidder{i % 3}", "bid", {"auction": "a", "amount": 5 + i}) for i in range(6)
        ]

        def invariant(store):
            book = store.read("auction/a") or {}
            return all(isinstance(v, (int, float)) and v > 0 for v in book.values())

    report = check_iconfluence(contract, invocations, invariant, trials=args.trials)
    print(f"contract:            {contract.contract_id}")
    print(f"transactions:        {report.write_set_count}")
    print(f"interleavings tried: {report.trials}")
    print(f"convergent:          {report.convergent}")
    print(f"invariant preserved: {report.invariant_preserved}")
    if report.violation:
        print(f"violation:           {report.violation}")
    return 0 if report.i_confluent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OrderlessChain reproduction - experiment runner",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments").set_defaults(func=_cmd_list)

    run = subparsers.add_parser(
        "run", help="run experiments and print each figure/table with its checks"
    )
    run.add_argument(
        "experiment",
        nargs="+",
        type=_experiment_name,
        help=f"spec ids or groups from `repro list`, or {CHAOS}",
    )
    _add_common_flags(run, "system", "app", "seed", "jobs")
    run.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds per run (default: the experiment's own)",
    )
    run.add_argument("--scale", type=float, default=None, help="scale-down factor (default: env)")
    run.add_argument(
        "--output",
        default=None,
        help="write the figure data as JSON (several panels: one entry per id)",
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="SCHEDULE.json",
        help="chaos only: a fault schedule file (default: the built-in smoke schedule)",
    )
    run.add_argument(
        "--resilience",
        action="store_true",
        help="chaos only: adaptive timeouts, hedged retries, and circuit breakers"
        " for OrderlessChain clients (docs/RESILIENCE.md)",
    )
    run.add_argument(
        "--max-retries",
        dest="max_retries",
        type=int,
        default=0,
        help="chaos only: client retries per transaction; a fixed-timeout client"
        " retries only the endorsement phase, a --resilience client also its"
        " commit (default 0)",
    )
    run.add_argument(
        "--snapshot-interval",
        type=float,
        default=0.0,
        help="chaos only: organization checkpoint period in simulated seconds"
        " (0 disables snapshot-based recovery)",
    )
    run.set_defaults(func=_cmd_run)

    trace = subparsers.add_parser(
        "trace",
        help="run one traced experiment; export a chrome://tracing JSON and node metrics",
    )
    trace.add_argument("--system", choices=SYSTEMS, default="orderlesschain")
    trace.add_argument("--app", choices=APPS, default="voting")
    trace.add_argument("--rate", type=float, default=2000.0, help="arrival rate, paper-scale tps")
    trace.add_argument("--orgs", type=int, default=8)
    trace.add_argument("--quorum", type=int, default=4)
    trace.add_argument("--duration", type=float, default=10.0, help="simulated seconds")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--scale", type=float, default=None, help="scale-down factor (default: env)")
    trace.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        help="simulated seconds between node metric samples (0 disables)",
    )
    trace.add_argument("--trace-out", default="trace.json", help="chrome trace output path")
    trace.add_argument("--metrics-out", default=None, help="also write metrics summary as JSON")
    trace.set_defaults(func=_cmd_trace)

    report = subparsers.add_parser(
        "report",
        help="regenerate EXPERIMENTS.md + experiments.json from the experiment catalog",
    )
    report.add_argument(
        "--figures",
        nargs="*",
        default=None,
        metavar="ID",
        help="spec ids or groups (e.g. fig6a fig9; comma-separated also works); default: all",
    )
    _add_common_flags(report, "jobs")
    report.add_argument(
        "--quick",
        action="store_true",
        help="reduced grids and durations (minutes instead of hours)",
    )
    report.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 if fresh results drift from the committed files",
    )
    report.add_argument("--experiments-md", default="EXPERIMENTS.md", help="generated document path")
    report.add_argument("--manifest", default="experiments.json", help="manifest output path")
    report.add_argument(
        "--cache-dir",
        default=".repro-report-cache",
        help="resumable result-cache directory (delete to force a rerun; --check only reads it)",
    )
    report.add_argument(
        "--trace-out",
        default=None,
        help="also write a chrome trace of the pipeline run itself",
    )
    report.set_defaults(func=_cmd_report)

    explore = subparsers.add_parser(
        "explore",
        help="fuzz schedules against the invariant oracles; minimize and replay"
        " counterexamples (docs/TESTING.md)",
    )
    _add_common_flags(explore, "system", "app", "seed", "jobs")
    explore.add_argument(
        "--executions", type=int, default=50, help="execution budget for the search"
    )
    explore.add_argument(
        "--strategy",
        choices=["random", "coverage"],
        default="random",
        help="random seed sweeps, or coverage-guided mutation of novel-signature cases",
    )
    explore.add_argument(
        "--duration", type=float, default=20.0, help="simulated seconds per execution"
    )
    explore.add_argument("--scale", type=float, default=None, help="scale-down factor (default: env)")
    explore.add_argument(
        "--out-dir", default=".", help="where counterexample *.schedule.json artifacts go"
    )
    explore.add_argument(
        "--plant-bug",
        choices=sorted(PLANTED_BUGS),
        default=None,
        help="seed a known protocol bug (mutation smoke: the explorer must find it)",
    )
    explore.add_argument(
        "--replay",
        default=None,
        metavar="FILE.schedule.json",
        help="re-execute a saved counterexample and verify it reproduces",
    )
    explore.set_defaults(func=_cmd_explore)

    check = subparsers.add_parser(
        "check-iconfluence", help="empirically check a demo contract's I-confluence"
    )
    check.add_argument("contract", choices=["voting", "auction"])
    check.add_argument("--trials", type=int, default=50)
    check.set_defaults(func=_cmd_check_iconfluence)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
