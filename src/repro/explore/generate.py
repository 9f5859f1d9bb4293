"""Random case generation and mutation for the schedule explorer.

Generated schedules are *eventually clean*: every crash is recovered,
every partition healed, every loss burst and slow-node window bounded,
and all effects end inside the horizon. That keeps the oracles'
obligations intact — on correct code a generated case must stay green,
so any violation the explorer finds is a real interleaving bug, not an
artifact of a fault the schedule never repaired.

All draws come from a caller-supplied ``random.Random`` owned by the
explorer; nothing here touches the simulation's RNG registry, the
environment, or wall-clock time, so a (strategy, seed) pair always
enumerates the same case sequence.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional

from repro.bench.config import ExperimentConfig, default_scale
from repro.faults import default_node_ids
from repro.faults.schedule import (
    KIND_CRASH,
    KIND_HEAL,
    KIND_LOSS_BURST,
    KIND_PARTITION,
    KIND_RECOVER,
    KIND_SLOW_NODE,
    FaultEvent,
    FaultSchedule,
)
from repro.sim.nondeterminism import ExploreProfile

# Bounds for generated fault intensity; chosen so that correct systems
# still converge comfortably inside the post-horizon drain window.
MAX_CRASH_WINDOWS = 2
MAX_LOSS_PROBABILITY = 0.35
MAX_DUP_PROBABILITY = 0.15
MAX_BURST_DURATION = 2.0
MAX_SLOW_FACTOR = 4.0


def _round(value: float) -> float:
    """Keep generated times short and JSON-stable."""
    return round(value, 3)


def random_fault_schedule(
    rng: random.Random, node_ids: List[str], horizon: float
) -> FaultSchedule:
    """A random, eventually-clean fault schedule over ``node_ids``.

    Draws 0-2 crash/recover windows, at most one partition (healed), at
    most one loss burst, and at most one slow-node window, all ending
    by ``horizon``.
    """
    events: List[FaultEvent] = []
    if horizon <= 2.0 or len(node_ids) < 2:
        return FaultSchedule()
    latest = horizon - 1.0

    for _ in range(rng.randint(0, MAX_CRASH_WINDOWS)):
        start = _round(rng.uniform(0.5, latest - 1.0))
        end = _round(rng.uniform(start + 0.5, latest))
        node = rng.choice(node_ids)
        events.append(FaultEvent(at=start, kind=KIND_CRASH, node=node))
        events.append(FaultEvent(at=end, kind=KIND_RECOVER, node=node))

    if rng.random() < 0.5:
        start = _round(rng.uniform(0.5, latest - 1.0))
        end = _round(rng.uniform(start + 0.5, latest))
        split = rng.randint(1, len(node_ids) - 1)
        members = list(node_ids)
        rng.shuffle(members)
        groups = (tuple(sorted(members[:split])), tuple(sorted(members[split:])))
        events.append(FaultEvent(at=start, kind=KIND_PARTITION, groups=groups))
        events.append(FaultEvent(at=end, kind=KIND_HEAL))

    if rng.random() < 0.5:
        start = _round(rng.uniform(0.5, latest - 0.5))
        duration = _round(min(rng.uniform(0.3, MAX_BURST_DURATION), latest - start))
        events.append(
            FaultEvent(
                at=start,
                kind=KIND_LOSS_BURST,
                duration=duration,
                loss_probability=_round(rng.uniform(0.05, MAX_LOSS_PROBABILITY)),
                duplicate_probability=_round(rng.uniform(0.0, MAX_DUP_PROBABILITY)),
            )
        )

    if rng.random() < 0.3:
        start = _round(rng.uniform(0.5, latest - 0.5))
        duration = _round(min(rng.uniform(0.5, 2.0), latest - start))
        events.append(
            FaultEvent(
                at=start,
                kind=KIND_SLOW_NODE,
                node=rng.choice(node_ids),
                duration=duration,
                factor=_round(rng.uniform(1.5, MAX_SLOW_FACTOR)),
            )
        )

    return FaultSchedule(events=tuple(events))


def ends_clean(schedule: FaultSchedule) -> bool:
    """True when ``schedule`` leaves no node crashed and no cut in place."""
    return not schedule.crashed_at_end() and not schedule.partitioned_at_end()


def random_case(
    rng: random.Random,
    system: str,
    app: str = "voting",
    duration: float = 20.0,
    scale: Optional[float] = None,
    num_orgs: int = 4,
    quorum: int = 2,
    arrival_rate: float = 400.0,
    planted_bug: Optional[str] = None,
) -> ExperimentConfig:
    """Draw a fresh case: new seeds, new profile, new fault schedule.

    The scale is resolved here and pinned in the case. The small object
    pool and election count are the explorer's contention point: more
    same-object concurrency, which is where order-sensitivity bugs
    live. Oracle checking is always on — the checkers *are* the
    property being fuzzed.
    """
    profile = ExploreProfile(
        tie_seed=rng.randrange(1 << 30),
        jitter_seed=rng.randrange(1 << 30),
        jitter_factor=_round(rng.uniform(0.0, 0.5)),
    )
    node_ids = default_node_ids(system, num_orgs)
    return ExperimentConfig(
        system=system,
        app=app,
        seed=rng.randrange(1 << 30),
        arrival_rate=arrival_rate,
        num_orgs=num_orgs,
        quorum=quorum,
        duration=duration,
        scale=scale if scale is not None else default_scale(),
        object_pool=16,
        elections=4,
        check=True,
        explore=profile,
        fault_schedule=random_fault_schedule(rng, node_ids, horizon=duration * 0.6),
        planted_bug=planted_bug,
    )


def mutate_case(rng: random.Random, case: ExperimentConfig) -> ExperimentConfig:
    """Small perturbation of an interesting case (coverage-guided mode).

    One mutation per call: re-draw a nondeterminism seed, nudge the
    jitter factor, drop or add a fault event, shift an event in time,
    or re-draw the whole fault schedule. Workload shape (system, app,
    orgs, rate, scale) is preserved so the signature space stays
    comparable across mutants. A mutant whose schedule does not end
    clean (a recover shifted before its crash, a heal before its
    partition) is drawn again.
    """
    while True:
        mutant = _mutant(rng, case)
        if ends_clean(mutant.fault_schedule):
            return mutant


def _mutant(rng: random.Random, case: ExperimentConfig) -> ExperimentConfig:
    choice = rng.randrange(6)
    if choice == 0:  # new tie permutation
        profile = case.explore
        return case.with_(
            explore=ExploreProfile(
                tie_seed=rng.randrange(1 << 30),
                jitter_seed=profile.jitter_seed,
                jitter_factor=profile.jitter_factor,
            )
        )
    if choice == 1:  # new jitter stream and intensity
        profile = case.explore
        return case.with_(
            explore=ExploreProfile(
                tie_seed=profile.tie_seed,
                jitter_seed=rng.randrange(1 << 30),
                jitter_factor=_round(rng.uniform(0.0, 0.5)),
            )
        )
    if choice == 2:  # new protocol seed
        return case.with_(seed=rng.randrange(1 << 30))
    events = list(case.fault_schedule.events)
    if choice == 3 and events:  # drop one paired-safe event window
        victim = rng.choice(events)
        keep = [event for event in events if event is not victim]
        # Dropping a crash keeps fail-stop clean only if its recover
        # goes too (and vice versa), so remove the partner as well.
        if victim.kind in (KIND_CRASH, KIND_RECOVER) and victim.node:
            keep = [
                event
                for event in keep
                if not (
                    event.node == victim.node
                    and event.kind in (KIND_CRASH, KIND_RECOVER)
                )
            ]
        if victim.kind in (KIND_PARTITION, KIND_HEAL):
            keep = [
                event
                for event in keep
                if event.kind not in (KIND_PARTITION, KIND_HEAL)
            ]
        return case.with_(fault_schedule=FaultSchedule(events=tuple(keep)))
    if choice == 4 and events:  # shift one event slightly in time
        index = rng.randrange(len(events))
        event = events[index]
        shifted_at = _round(max(0.1, event.at + rng.uniform(-1.0, 1.0)))
        events[index] = replace(event, at=shifted_at)
        return case.with_(fault_schedule=FaultSchedule(events=tuple(events)))
    # Fallback (and choice == 5): regenerate the fault schedule.
    node_ids = default_node_ids(case.system, case.num_orgs)
    return case.with_(
        fault_schedule=random_fault_schedule(rng, node_ids, horizon=case.duration * 0.6)
    )


__all__ = ["ends_clean", "mutate_case", "random_case", "random_fault_schedule"]
