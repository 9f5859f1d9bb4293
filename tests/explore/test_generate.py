"""Generated schedules are eventually clean and fully seed-determined."""

import random

from repro.explore import mutate_case, random_case, random_fault_schedule
from repro.faults import default_node_ids
from repro.faults.schedule import (
    KIND_CRASH,
    KIND_HEAL,
    KIND_LOSS_BURST,
    KIND_PARTITION,
    KIND_RECOVER,
    KIND_SLOW_NODE,
)

NODES = default_node_ids("orderlesschain", 4)


def assert_eventually_clean(schedule, horizon):
    """Every fault is repaired and every effect ends inside the horizon."""
    crashed = {}
    partitions = 0
    for event in schedule.events:
        assert 0.0 < event.at <= horizon
        if event.kind == KIND_CRASH:
            crashed[event.node] = crashed.get(event.node, 0) + 1
        elif event.kind == KIND_RECOVER:
            crashed[event.node] = crashed.get(event.node, 0) - 1
        elif event.kind == KIND_PARTITION:
            partitions += 1
        elif event.kind == KIND_HEAL:
            partitions -= 1
        elif event.kind in (KIND_LOSS_BURST, KIND_SLOW_NODE):
            assert event.duration is not None
            assert event.at + event.duration <= horizon + 2.0
    assert all(count == 0 for count in crashed.values()), "unrecovered crash"
    assert partitions == 0, "unhealed partition"


def test_generated_schedules_are_eventually_clean():
    rng = random.Random("clean")
    for _ in range(50):
        assert_eventually_clean(random_fault_schedule(rng, NODES, 12.0), 12.0)


def test_degenerate_inputs_yield_empty_schedules():
    rng = random.Random(0)
    assert len(random_fault_schedule(rng, NODES, 1.0)) == 0
    assert len(random_fault_schedule(rng, NODES[:1], 12.0)) == 0


def test_generation_is_seed_deterministic():
    cases_a = [random_case(random.Random("s"), "orderlesschain") for _ in range(1)]
    cases_b = [random_case(random.Random("s"), "orderlesschain") for _ in range(1)]
    assert cases_a == cases_b
    # ... and a different seed diverges.
    assert random_case(random.Random("t"), "orderlesschain") != cases_a[0]


def test_random_case_pins_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "25")
    case = random_case(random.Random(1), "orderlesschain")
    assert case.scale == 25.0
    # Explicit scale wins over the environment.
    assert random_case(random.Random(1), "orderlesschain", scale=40.0).scale == 40.0


def test_mutation_preserves_workload_shape_and_cleanliness():
    rng = random.Random("mutate")
    case = random_case(rng, "bidl", duration=15.0, scale=40.0)
    for _ in range(60):
        mutant = mutate_case(rng, case)
        assert (mutant.system, mutant.app) == (case.system, case.app)
        assert (mutant.num_orgs, mutant.quorum) == (case.num_orgs, case.quorum)
        assert mutant.scale == case.scale
        assert_eventually_clean(mutant.faults, mutant.duration * 0.6 + 1.0)
        case = mutant if rng.random() < 0.5 else case
