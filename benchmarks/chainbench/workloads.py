"""The five chainbench workloads.

Each workload is one ``ExperimentConfig`` (the public, declarative run
description of ``repro.api``) chosen because it loads a different
layer of the stack; ``why`` records the reason and is copied verbatim
into ``BENCHMARK.json``. The load generator is the simulator's own
open-loop driver: uniform arrivals on the simulated clock at the
stated paper-scale rate, so a request's latency is timed from the
instant it was due, whatever the system's backlog.

Nothing here imports ``repro`` at module level: the parent process
only spawns children, and a child times the import as part of
``setup_s``.

Sizes. ISSUE 11 sized the runs for ~7-16 host seconds each; the
driver's cap (about 30 s per invocation, several repeats inside it)
does not leave room for that, so simulated durations are cut until
one untraced run takes 2-3.5 s on the 2-core reference box. The cut is
per workload, not one common factor: ``state-heavy`` is quadratic in
its duration (MV-Register insert is linear in concurrent writers), so
a common factor would leave it either too long for the cap or too
short to time.

``endorse-heavy`` is perfbench's ``orderless/events`` shape at 2400 tps
instead of 4000. At 4000 tps the organizations are past saturation:
the backlog grows for as long as load is offered, so simulated latency
measures the run's length and varies 9 % from seed to seed, and the
replicas are still gossiping when the oracles run (``convergence``
fails at the default drain). Just under saturation the host work per
transaction is the same and the simulated metrics are well-conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

SCALE = 20.0
SMOKE_DURATION = 0.5
# Simulated seconds after the last arrival before the run ends (and the
# oracles look). At the config default of 8 s an organization that is
# outside a transaction's quorum has had one anti-entropy round to
# fetch it, and ``convergence`` failed on 1 seed in 5; at 16 s it held
# on 170 of 170. The idle rounds cost ~0.4 host seconds.
ORDERLESS_DRAIN = 20.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a name, a reason, and config knobs."""

    name: str
    why: str
    duration: float  # simulated seconds of offered load
    knobs: Dict[str, Any] = field(default_factory=dict)
    # (start, crash_span, partition_span, loss_span, snapshot_interval)
    # as fractions of ``duration``; None = fault-free.
    chaos: Optional[Tuple[float, float, float, float, float]] = None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="endorse-heavy",
            why=(
                "n=16 q=8, 4 objects, modify-only at 2400 tps (just under saturation): most "
                "signatures per commit, so crypto canonicalize/sign/verify dominates host time"
            ),
            duration=2.5,
            knobs=dict(
                system="orderlesschain",
                app="synthetic",
                arrival_rate=2400.0,
                num_orgs=16,
                quorum=8,
                obj_count=4,
                modify_ratio=1.0,
            ),
        ),
        Workload(
            name="mixed-default",
            why=(
                "paper Table 2 defaults (n=16 q=4, one G-Counter, R50M50, 3000 tps): no layer "
                "dominates, reads run beside writes, kernel and dispatch cost shows"
            ),
            duration=10.0,
            knobs=dict(system="orderlesschain", app="synthetic", arrival_rate=3000.0),
        ),
        Workload(
            name="state-heavy",
            why=(
                "n=8 q=2, MV-Register, 8 objects x 4 ops, modify-only at 1500 tps: CRDT apply "
                "dominates (insert is linear in concurrent writers); bypasses the event kernel"
            ),
            duration=1.3,
            knobs=dict(
                system="orderlesschain",
                app="synthetic",
                arrival_rate=1500.0,
                num_orgs=8,
                quorum=2,
                crdt_type="mvregister",
                obj_count=8,
                ops_per_obj=4,
                # Not the issue's 0.8: cost is quadratic in the writes, so
                # the random read/write split alone moved host work by
                # 11 % from seed to seed; modify-only moves it by 2 %.
                modify_ratio=1.0,
            ),
        ),
        Workload(
            name="chaos-recover",
            why=(
                "voting, n=8 q=3, 2000 tps under crash + partition + loss burst with resilience, "
                "retries and snapshots: the only workload with faults, repair and failed requests"
            ),
            duration=12.0,
            knobs=dict(
                system="orderlesschain",
                app="voting",
                arrival_rate=2000.0,
                num_orgs=8,
                quorum=3,
                resilience=True,
                max_retries=2,
            ),
            # ISSUE 11's schedule (start=2, spans 6/6/4, snapshots every
            # 5 s of a 30 s run), kept in proportion to the duration.
            chaos=(2 / 30, 6 / 30, 6 / 30, 4 / 30, 5 / 30),
        ),
        Workload(
            name="kernel-baseline",
            why=(
                "BIDL baseline at Table 2 defaults, 3000 tps: event kernel and network dominate, "
                "OrderlessChain layers idle - the bypass workload for every crypto/crdt/core change"
            ),
            duration=24.0,
            knobs=dict(system="bidl", app="synthetic", arrival_rate=3000.0),
        ),
    )
}


def build_config(name: str, seed: int, smoke: bool = False, **overrides: Any):
    """The workload's ``ExperimentConfig`` for ``seed``.

    ``smoke`` shrinks the offered-load window to at most one simulated
    second (fault spans shrink in proportion). ``overrides`` are extra
    config fields (``check=True`` for the traced run).
    """
    from repro.api import ExperimentConfig

    workload = WORKLOADS[name]
    duration = min(workload.duration, SMOKE_DURATION) if smoke else workload.duration
    knobs = dict(workload.knobs)
    if knobs["system"] == "orderlesschain":
        knobs["drain"] = ORDERLESS_DRAIN
    if workload.chaos is not None:
        from repro.faults import default_node_ids, smoke_schedule

        start, crash, partition, loss, snapshot = (
            fraction * duration for fraction in workload.chaos
        )
        knobs["fault_schedule"] = smoke_schedule(
            default_node_ids(knobs["system"], knobs["num_orgs"]),
            start=start,
            crash_span=crash,
            partition_span=partition,
            loss_span=loss,
        )
        knobs["snapshot_interval"] = snapshot
    knobs.update(overrides)
    return ExperimentConfig(duration=duration, scale=SCALE, seed=seed, **knobs)


__all__ = ["ORDERLESS_DRAIN", "SCALE", "SMOKE_DURATION", "WORKLOADS", "Workload", "build_config"]
