"""Microbenchmark harness for the simulator's hot paths.

``run_perfbench()`` times a fixed set of single-process workloads and
returns one record per workload; ``merge_report`` folds the records
into ``BENCH_perf.json`` so the repository carries a perf trajectory
across PRs. The first run against a fresh file records itself as the
*baseline*; later runs update ``current`` and report
``speedup_vs_baseline`` per workload, so a regression (or a win) is a
one-line diff.

The workloads:

* ``orderless/events`` — the headline number: a sign/verify-heavy
  OrderlessChain run ({8 of 16} endorsement policy, 100 % modify
  transactions), measured in simulator events per wall second.
* ``sim/events`` — the bare event loop: timer chains and fan-out
  callbacks with no protocol work.
* ``crypto/canonical_fresh`` / ``crypto/canonical_repeat`` —
  canonical serialization of a transaction-shaped payload, with a
  fresh object per call vs the same object re-serialized (the case the
  canonical-bytes cache accelerates).
* ``crypto/verify_repeat`` / ``crypto/verify_fresh`` — signature
  verification of one payload many times (same object, then
  content-equal copies), the shape commit validation produces when one
  transaction is verified at every organization.
* ``net/send`` — the simulated network's per-message path.
* ``orderless/antientropy`` — anti-entropy digest scaling: both digest
  arms (watermark and legacy full-set) swept over run length, recording
  modeled digest bytes per round — flat for watermarks, linear for the
  legacy arm (docs/PERFORMANCE.md).
* ``orderless/multichannel`` — channel scaling: 1/2/4 channels at
  fixed per-channel load on one network, recording aggregate committed
  transactions per point (monotone when channels shard cleanly).

Every workload is deterministic (fixed seeds, fixed sizes); only the
wall-clock measurements vary between machines. Use ``smoke=True`` for
a sub-second functional pass (the ``perf_smoke`` tier-1 test) — smoke
numbers are too noisy to compare and are never written to the report.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, Optional

from repro.crypto.hashing import Wire
from repro.report.envinfo import environment_info

DEFAULT_REPORT_PATH = "BENCH_perf.json"

# Schema 2 moved the volatile environment blocks (host, python,
# timestamp) out of ``baseline``/``current`` into one top-level
# ``environment`` key, so the measurement payload diffs cleanly —
# the same environment/measurement split ``experiments.json`` uses
# (see repro.report.envinfo and docs/REPORT.md).
SCHEMA_VERSION = 2


def _timed(work: Callable[[], int]) -> Dict[str, Any]:
    """Run ``work`` (returns its unit count) and report units/sec."""
    started = time.perf_counter()
    units = work()
    wall = time.perf_counter() - started
    return {
        "work_units": units,
        "wall_s": round(wall, 6),
        "per_sec": round(units / wall, 2) if wall > 0 else float("inf"),
    }


# -- workloads ---------------------------------------------------------------


def _sample_transaction_wire(op_count: int = 8) -> Dict[str, Any]:
    """A transaction-shaped payload (the dominant serialization input).

    Rooted in a ``Wire`` like ``Transaction.to_wire()``, so repeat
    serializations of one sample are memoized and fresh samples are not.
    """
    write_set = [
        {
            "object_id": f"obj{index}",
            "key": f"k{index}",
            "value_type": "gcounter",
            "value": index + 1,
            "op_id": f"client0#{index}#0",
            "clock": {"client_id": "client0", "counter": index + 1},
        }
        for index in range(op_count)
    ]
    return Wire(
        {
            "proposal": {
                "client_id": "client0",
                "contract_id": "synthetic",
                "function": "apply",
                "params": {"objects": op_count},
                "clock": {"client_id": "client0", "counter": 1},
            },
            "write_set": write_set,
            "endorsements": [
                {
                    "org_id": f"org{index}",
                    "proposal_id": "client0:1",
                    "write_set": write_set,
                    "signature": "ab" * 32,
                }
                for index in range(4)
            ],
            "client_signature": "cd" * 32,
        }
    )


def bench_sim_events(events: int = 200_000) -> Dict[str, Any]:
    """Bare event-loop throughput: schedule-and-run trivial callbacks."""
    from repro.sim.core import Simulator

    sim = Simulator()

    def tick() -> None:
        if sim.processed_events < events:
            sim.schedule(0.001, tick)

    # Seed a small fan-out so the heap stays non-trivially sized.
    for _ in range(32):
        sim.schedule(0.0, tick)

    def work() -> int:
        sim.run()
        return sim.processed_events

    return _timed(work)


def bench_canonical_fresh(iterations: int = 2_000) -> Dict[str, Any]:
    """Serialize a *fresh* transaction payload every iteration."""
    from repro.crypto.hashing import canonical_bytes

    def work() -> int:
        for _ in range(iterations):
            canonical_bytes(_sample_transaction_wire())
        return iterations

    return _timed(work)


def bench_canonical_repeat(iterations: int = 20_000) -> Dict[str, Any]:
    """Re-serialize the *same* payload object (cacheable case)."""
    from repro.crypto.hashing import canonical_bytes

    payload = _sample_transaction_wire()

    def work() -> int:
        for _ in range(iterations):
            canonical_bytes(payload)
        return iterations

    return _timed(work)


def bench_verify_repeat(iterations: int = 20_000) -> Dict[str, Any]:
    """Verify one signature over one payload object many times."""
    from repro.crypto.identity import CertificateAuthority

    ca = CertificateAuthority()
    identity = ca.enroll("org0", "organization", seed=b"org0")
    payload = {"transaction_id": "client0:1", "digest": "ab" * 32}
    signature = identity.sign(payload)

    def work() -> int:
        for _ in range(iterations):
            assert ca.verify("org0", payload, signature)
        return iterations

    return _timed(work)


def bench_verify_fresh(iterations: int = 10_000) -> Dict[str, Any]:
    """Verify one signature against content-equal payload copies.

    This is the cross-organization shape: each organization rebuilds
    the signed payload from the wire form, so the objects differ but
    the canonical bytes agree.
    """
    from repro.crypto.identity import CertificateAuthority

    ca = CertificateAuthority()
    identity = ca.enroll("org0", "organization", seed=b"org0")
    signature = identity.sign({"transaction_id": "client0:1", "digest": "ab" * 32})

    def work() -> int:
        for _ in range(iterations):
            payload = {"transaction_id": "client0:1", "digest": "ab" * 32}
            assert ca.verify("org0", payload, signature)
        return iterations

    return _timed(work)


def bench_net_send(messages: int = 50_000) -> Dict[str, Any]:
    """Per-message network path: send, sample delay, deliver."""
    import random

    from repro.net.message import Message
    from repro.net.network import Network
    from repro.sim.core import Simulator

    sim = Simulator()
    network = Network(sim, random.Random(7))
    received = [0]
    for index in range(8):
        network.register(f"node{index}", lambda _msg: received.__setitem__(0, received[0] + 1))

    def work() -> int:
        for index in range(messages):
            network.send(
                Message(
                    sender=f"node{index % 8}",
                    recipient=f"node{(index + 1) % 8}",
                    msg_type="bench",
                    body={"seq": index},
                )
            )
        sim.run()
        return received[0]

    return _timed(work)


def bench_orderless_events(duration: float = 6.0, smoke: bool = False) -> Dict[str, Any]:
    """The headline workload: a sign/verify-heavy OrderlessChain run.

    {8 of 16} endorsement policy and 100 % modify transactions maximize
    the signatures created and verified per committed transaction; the
    metric is simulator events per wall second.
    """
    from repro.bench.config import ExperimentConfig
    from repro.bench.workload import make_workload
    from repro.core.system import OrderlessChainNetwork, OrderlessChainSettings

    config = ExperimentConfig(
        system="orderlesschain",
        app="synthetic",
        arrival_rate=1500.0 if smoke else 4000.0,
        num_orgs=16,
        quorum=8,
        obj_count=4,
        modify_ratio=1.0,
        duration=duration,
        scale=20.0,
        seed=0,
    )
    workload = make_workload(config)
    settings = OrderlessChainSettings.from_config(config)
    net = OrderlessChainNetwork(settings)
    from repro.contracts.synthetic import SyntheticContract

    net.install_contract(SyntheticContract)
    for _ in range(config.effective_clients):
        net.add_client()
    workload_rng = net.rng.stream("workload")
    clients = net.clients
    interval = 1.0 / config.effective_rate

    def driver():
        index = 0
        while net.sim.now < config.duration:
            client = clients[index % len(clients)]
            contract_id, function, params = workload.orderless_modify(
                workload_rng, client.client_id
            )
            net.sim.process(client.submit_modify(contract_id, function, params))
            index += 1
            yield net.sim.timeout(interval)

    net.start()
    net.sim.process(driver(), name="perfbench-driver")

    def work() -> int:
        net.run(until=config.duration + config.drain)
        return net.sim.processed_events

    record = _timed(work)
    record["committed_txns"] = sum(client.committed for client in clients)
    return record


def _antientropy_run(
    duration: float, legacy_digests: bool, sync_interval: float = 1.0
) -> Dict[str, Any]:
    """One anti-entropy scaling run; returns digest traffic statistics.

    A small OrderlessChain network with frequent anti-entropy rounds
    and a 100 % modify workload, so the committed set grows steadily
    while digests keep flowing. Returns the mean modeled digest size
    per round, which is what the scaling claim is about: flat in run
    length for watermarks, linear for the legacy full-set digest.
    """
    from repro.bench.config import ExperimentConfig
    from repro.bench.workload import make_workload
    from repro.contracts.synthetic import SyntheticContract
    from repro.core.organization import MSG_SYNC_DIGEST
    from repro.core.system import OrderlessChainNetwork, OrderlessChainSettings

    config = ExperimentConfig(
        system="orderlesschain",
        app="synthetic",
        arrival_rate=2000.0,
        num_orgs=4,
        quorum=2,
        modify_ratio=1.0,
        duration=duration,
        scale=20.0,
        seed=0,
        legacy_digests=legacy_digests,
    )
    workload = make_workload(config)
    settings = OrderlessChainSettings.from_config(config, sync_interval=sync_interval)
    net = OrderlessChainNetwork(settings)
    net.install_contract(SyntheticContract)
    for _ in range(config.effective_clients):
        net.add_client()
    workload_rng = net.rng.stream("workload")
    clients = net.clients
    interval = 1.0 / config.effective_rate

    def driver():
        index = 0
        while net.sim.now < config.duration:
            client = clients[index % len(clients)]
            contract_id, function, params = workload.orderless_modify(
                workload_rng, client.client_id
            )
            net.sim.process(client.submit_modify(contract_id, function, params))
            index += 1
            yield net.sim.timeout(interval)

    net.start()
    net.sim.process(driver(), name="antientropy-driver")
    net.run(until=config.duration + config.drain)
    rounds = net.network.sent_by_type.get(MSG_SYNC_DIGEST, 0)
    digest_bytes = net.network.bytes_by_type.get(MSG_SYNC_DIGEST, 0)
    committed = sum(
        org.ledger.valid_transaction_count for org in net.organizations
    ) // len(net.organizations)
    return {
        "duration": duration,
        "rounds": rounds,
        "digest_bytes_total": digest_bytes,
        "digest_bytes_per_round": round(digest_bytes / rounds, 1) if rounds else 0.0,
        "committed_txns": committed,
        "events": net.sim.processed_events,
    }


def bench_antientropy(smoke: bool = False) -> Dict[str, Any]:
    """Anti-entropy digest scaling: watermark vs legacy full-set.

    Sweeps run length for both arms and reports per-round digest bytes
    at each point. The headline ``per_sec`` is simulator events per
    wall second across the sweep; the scaling data rides along under
    ``watermark``/``legacy`` for the perf report and the scaling smoke
    test (docs/PERFORMANCE.md).
    """
    durations = [2.0, 4.0] if smoke else [4.0, 8.0, 16.0]
    sweeps: Dict[str, Any] = {"watermark": [], "legacy": []}

    def work() -> int:
        events = 0
        for arm, legacy in (("watermark", False), ("legacy", True)):
            for duration in durations:
                run = _antientropy_run(duration, legacy_digests=legacy)
                sweeps[arm].append(run)
                events += run["events"]
        return events

    record = _timed(work)
    record.update(sweeps)
    return record


def bench_multichannel(smoke: bool = False) -> Dict[str, Any]:
    """Multi-application channel scaling: committed throughput vs
    channel count.

    Deploys 1, 2, and 4 channels on one OrderlessChain network and
    drives each channel at the same fixed rate, so offered load grows
    linearly with channel count. Channels shard the org hot path
    (per-channel stores, hash chains, gossip backlogs, anti-entropy),
    so aggregate committed transactions should grow monotonically —
    the per-point data rides along under ``scaling`` for the perf
    report and the scaling smoke test. The headline ``per_sec`` is
    aggregate committed transactions per wall second across the sweep.
    """
    from repro.bench.config import ChannelSpec, ExperimentConfig
    from repro.bench.runner import run_experiment

    counts = [1, 2] if smoke else [1, 2, 4]
    duration = 2.0 if smoke else 8.0
    per_channel_rate = 200.0 if smoke else 400.0
    sweep: list = []

    def work() -> int:
        total = 0
        for count in counts:
            config = ExperimentConfig(
                system="orderlesschain",
                app="synthetic",
                arrival_rate=per_channel_rate * count,
                num_orgs=4,
                quorum=2,
                duration=duration,
                scale=20.0,
                seed=0,
                channels=tuple(ChannelSpec(f"ch{index}") for index in range(count)),
            )
            result = run_experiment(config)
            sweep.append(
                {
                    "channels": count,
                    "committed": result.committed,
                    "committed_per_sim_s": round(result.committed / duration, 1),
                    "committed_by_channel": result.extra.get("committed_by_channel", {}),
                }
            )
            total += result.committed
        return total

    record = _timed(work)
    record["scaling"] = sweep
    return record


# -- harness -----------------------------------------------------------------


def run_perfbench(smoke: bool = False) -> Dict[str, Any]:
    """Run every workload and return {workload name: record}.

    ``smoke=True`` shrinks every workload to a sub-second functional
    pass — it checks the harness end to end but its numbers are noise.
    """
    shrink = 50 if smoke else 1
    results = {
        "sim/events": bench_sim_events(events=200_000 // shrink),
        "crypto/canonical_fresh": bench_canonical_fresh(iterations=2_000 // shrink),
        "crypto/canonical_repeat": bench_canonical_repeat(iterations=20_000 // shrink),
        "crypto/verify_repeat": bench_verify_repeat(iterations=20_000 // shrink),
        "crypto/verify_fresh": bench_verify_fresh(iterations=10_000 // shrink),
        "net/send": bench_net_send(messages=50_000 // shrink),
        "orderless/events": bench_orderless_events(
            duration=0.8 if smoke else 6.0, smoke=smoke
        ),
        "orderless/antientropy": bench_antientropy(smoke=smoke),
        "orderless/multichannel": bench_multichannel(smoke=smoke),
    }
    for record in results.values():
        assert record["work_units"] > 0
    return results


def _load_existing(path: str) -> Dict[str, Any]:
    """Read an existing report, migrating schema 1 in memory.

    Schema 1 embedded an ``environment`` block (with its wall-clock
    timestamp) inside both ``baseline`` and ``current``; schema 2
    hoists them to a top-level ``environment: {baseline, current}`` so
    everything below ``baseline``/``current`` is a pure measurement.
    """
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        existing = json.load(handle)
    if existing.get("schema") == SCHEMA_VERSION:
        return existing
    environment = {}
    for side in ("baseline", "current"):
        block = existing.get(side) or {}
        if "environment" in block:
            environment[side] = block.pop("environment")
    existing["environment"] = environment
    existing["schema"] = SCHEMA_VERSION
    return existing


def merge_report(
    results: Dict[str, Any],
    path: str = DEFAULT_REPORT_PATH,
    rebaseline: bool = False,
) -> Dict[str, Any]:
    """Fold ``results`` into the perf report at ``path`` and write it.

    The first run (or ``rebaseline=True``) records itself as the
    baseline; afterwards the baseline is preserved so later runs
    measure against the same fixed point. Schema-1 files are migrated
    on the way through.
    """
    existing: Dict[str, Any] = {} if rebaseline else _load_existing(path)
    current = {"results": results}
    current_environment = environment_info()
    baseline = existing.get("baseline") or current
    baseline_environment = (
        existing.get("environment", {}).get("baseline") or current_environment
    )
    speedups = {}
    for name, record in results.items():
        base = baseline.get("results", {}).get(name)
        if base and base.get("per_sec"):
            speedups[name] = round(record["per_sec"] / base["per_sec"], 3)
    report = {
        "schema": SCHEMA_VERSION,
        "environment": {
            "baseline": baseline_environment,
            "current": current_environment,
        },
        "baseline": baseline,
        "current": current,
        "speedup_vs_baseline": speedups,
    }
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def format_report(report: Dict[str, Any]) -> str:
    """A readable per-workload table of the merged report."""
    lines = [f"{'workload':<28} {'per_sec':>14} {'vs baseline':>12}"]
    for name, record in sorted(report["current"]["results"].items()):
        speedup = report["speedup_vs_baseline"].get(name)
        lines.append(
            f"{name:<28} {record['per_sec']:>14,.0f} "
            f"{(f'{speedup:.2f}x' if speedup else '-'):>12}"
        )
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="repro perf microbenchmarks")
    parser.add_argument("--out", default=DEFAULT_REPORT_PATH, help="report path")
    parser.add_argument(
        "--smoke", action="store_true", help="fast functional pass; no report written"
    )
    parser.add_argument(
        "--rebaseline", action="store_true", help="record this run as the new baseline"
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        type=int,
        const=25,
        default=None,
        metavar="N",
        help="run under cProfile and print the top N functions by "
        "cumulative time (default 25); composes with --smoke",
    )
    args = parser.parse_args(argv)
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        results = run_perfbench(smoke=args.smoke)
        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        print(f"-- cProfile: top {args.profile} by cumulative time " + "-" * 20)
        stats.print_stats(args.profile)
    else:
        results = run_perfbench(smoke=args.smoke)
    if args.smoke:
        print("perf smoke pass OK:")
        for name, record in sorted(results.items()):
            print(f"  {name:<28} {record['work_units']} units in {record['wall_s']:.3f}s")
        return 0
    report = merge_report(results, path=args.out, rebaseline=args.rebaseline)
    print(format_report(report))
    print(f"\nwrote {args.out}")
    return 0


__all__ = [
    "DEFAULT_REPORT_PATH",
    "bench_antientropy",
    "bench_canonical_fresh",
    "bench_canonical_repeat",
    "bench_multichannel",
    "bench_net_send",
    "bench_orderless_events",
    "bench_sim_events",
    "bench_verify_fresh",
    "bench_verify_repeat",
    "environment_info",
    "format_report",
    "main",
    "merge_report",
    "run_perfbench",
]
