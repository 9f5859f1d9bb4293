"""Counterexample minimization (delta debugging over choice points).

Given a failing explore case (an
:class:`~repro.bench.config.ExperimentConfig`), shrink it
while the *same* failure persists — "same" meaning an identical set of
failing oracles, not an identical fingerprint (the fingerprint changes
with every dropped choice point by construction). Reductions, in
order:

1. **Profile** — try disabling delivery jitter, tie permutation, or
   both. A failure that survives with the profile off depends only on
   the base seed and fault timing, which is a much stronger repro.
2. **Fault events** — greedily drop event *units* (a crash with its
   recover, a partition with its heal, each burst/slow window alone)
   until no unit can be removed.
3. **Windows** — shorten what remains: halve burst/slow durations and
   crash windows while the failure persists.

Every probe is one full execution, so the whole pass is bounded by an
execution ``budget``; when the budget runs out the best case so far is
returned. Minimization never *changes* the failure — candidates that
fail differently (or pass) are rejected — so the minimized case's
failing-oracle set equals the original's by construction. Nor does it
change what the oracles may demand: a candidate whose schedule leaves a
node crashed or a partition in place is rejected without running.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, FrozenSet, List, Tuple

from repro.bench.config import ExperimentConfig
from repro.explore.generate import ends_clean
from repro.faults.schedule import (
    KIND_CRASH,
    KIND_HEAL,
    KIND_PARTITION,
    KIND_RECOVER,
    FaultEvent,
    FaultSchedule,
)
from repro.sim.nondeterminism import ExploreProfile

# A runner maps a case to its failing-oracle names (empty = run passed).
Runner = Callable[[ExperimentConfig], FrozenSet[str]]


def _event_units(events: Tuple[FaultEvent, ...]) -> List[List[FaultEvent]]:
    """Group events into droppable units that keep schedules clean.

    A crash must leave with its recover (else dropping it converts a
    transient fault into a permanent one and changes the oracles'
    obligations); likewise partition/heal. Bursts and slow windows are
    self-contained.
    """
    units: List[List[FaultEvent]] = []
    by_node: dict = {}
    cut: List[FaultEvent] = []
    for event in events:
        if event.kind in (KIND_CRASH, KIND_RECOVER):
            by_node.setdefault(event.node, []).append(event)
        elif event.kind in (KIND_PARTITION, KIND_HEAL):
            cut.append(event)
        else:
            units.append([event])
    units.extend(by_node.values())
    if cut:
        units.append(cut)
    return units


def _without(events: Tuple[FaultEvent, ...], unit: List[FaultEvent]) -> FaultSchedule:
    drop = set(map(id, unit))
    return FaultSchedule(
        events=tuple(event for event in events if id(event) not in drop)
    )


def _shrunk_windows(case: ExperimentConfig) -> List[ExperimentConfig]:
    """Candidates with one fault window halved (shortest meaningful 0.2s)."""
    events = case.fault_schedule.events

    def shrunk(index: int, **changes) -> ExperimentConfig:
        changed = list(events)
        changed[index] = replace(events[index], **changes)
        return case.with_(fault_schedule=FaultSchedule(events=tuple(changed)))

    candidates: List[ExperimentConfig] = []
    for index, event in enumerate(events):
        if event.duration is not None and event.duration > 0.4:
            candidates.append(shrunk(index, duration=round(event.duration / 2, 3)))
        if event.kind == KIND_RECOVER:
            # Halve the crash window this recover ends (the node's
            # latest earlier crash) by pulling the recover earlier.
            crash_at = max(
                (
                    other.at
                    for other in events[:index]
                    if other.kind == KIND_CRASH and other.node == event.node
                ),
                default=None,
            )
            if crash_at is not None and event.at - crash_at > 0.4:
                candidates.append(shrunk(index, at=round(crash_at + (event.at - crash_at) / 2, 3)))
    return candidates


def minimize(
    case: ExperimentConfig,
    failing: FrozenSet[str],
    runner: Runner,
    budget: int = 40,
) -> Tuple[ExperimentConfig, int]:
    """Shrink ``case`` while ``runner`` reproduces exactly ``failing``.

    Returns ``(minimized_case, executions_spent)``. ``failing`` must be
    non-empty (there is nothing to minimize about a passing case).
    """
    if not failing:
        raise ValueError("minimize needs a failing case")
    spent = 0

    def reproduces(candidate: ExperimentConfig) -> bool:
        nonlocal spent
        if not ends_clean(candidate.fault_schedule):
            return False  # a permanent fault changes the oracles' obligations
        spent += 1
        return runner(candidate) == failing

    current = case

    # 1. Profile reductions, most aggressive first.
    profile = current.explore
    for reduced in (
        ExploreProfile(),  # no controlled nondeterminism at all
        ExploreProfile(tie_seed=profile.tie_seed),  # ties only
        ExploreProfile(
            jitter_seed=profile.jitter_seed, jitter_factor=profile.jitter_factor
        ),  # jitter only
    ):
        if reduced == current.explore:
            continue
        if spent >= budget:
            return current, spent
        candidate = current.with_(explore=reduced)
        if reproduces(candidate):
            current = candidate
            break

    # 2. Greedy unit removal until fixpoint.
    progress = True
    while progress and spent < budget:
        progress = False
        for unit in _event_units(current.fault_schedule.events):
            if spent >= budget:
                break
            candidate = current.with_(
                fault_schedule=_without(current.fault_schedule.events, unit)
            )
            if reproduces(candidate):
                current = candidate
                progress = True
                break  # units were invalidated; regroup from scratch

    # 3. Shrink surviving windows until nothing halves any more.
    progress = True
    while progress and spent < budget:
        progress = False
        for candidate in _shrunk_windows(current):
            if spent >= budget:
                break
            if reproduces(candidate):
                current = candidate
                progress = True
                break

    return current, spent


__all__ = ["minimize"]
