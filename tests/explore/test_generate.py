"""Generated schedules are eventually clean and fully seed-determined."""

import random

from repro.explore import ends_clean, mutate_case, random_case, random_fault_schedule
from repro.faults import default_node_ids
from repro.faults.schedule import KIND_LOSS_BURST, KIND_SLOW_NODE, FaultEvent, FaultSchedule

NODES = default_node_ids("orderlesschain", 4)


def assert_eventually_clean(schedule, horizon):
    """Every fault is repaired and every effect ends inside the horizon.

    Judged on the ordered end state, not on crash/recover counts: a
    recover that precedes its crash balances the count but leaves the
    node crashed.
    """
    for event in schedule.events:
        assert 0.0 < event.at <= horizon
        if event.kind in (KIND_LOSS_BURST, KIND_SLOW_NODE):
            assert event.duration is not None
            assert event.at + event.duration <= horizon + 2.0
    assert schedule.crashed_at_end() == frozenset(), "unrecovered crash"
    assert not schedule.partitioned_at_end(), "unhealed partition"


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


def test_random_case_is_the_explorers_contention_point():
    case = random_case(random.Random(1), "fabric", app="synthetic")
    assert (case.system, case.app) == ("fabric", "synthetic")
    assert (case.num_orgs, case.quorum, case.arrival_rate) == (4, 2, 400.0)
    assert (case.object_pool, case.elections) == (16, 4)
    assert case.check, "the oracles are the property being fuzzed"


def test_recover_before_its_crash_is_not_clean():
    # Balanced crash/recover counts, but the node ends crashed.
    schedule = FaultSchedule(
        events=(
            FaultEvent(at=1.193, kind="crash", node="org2"),
            FaultEvent(at=1.492, kind="recover", node="org2"),
            FaultEvent(at=1.514, kind="recover", node="org2"),
            FaultEvent(at=2.077, kind="crash", node="org2"),
        )
    )
    assert not ends_clean(schedule)
    assert ends_clean(FaultSchedule(events=schedule.events[:2]))


def test_mutation_preserves_workload_shape_and_cleanliness():
    rng = random.Random("mutate")
    case = random_case(rng, "bidl", duration=15.0, scale=40.0)
    for _ in range(60):
        mutant = mutate_case(rng, case)
        assert (mutant.system, mutant.app) == (case.system, case.app)
        assert (mutant.num_orgs, mutant.quorum) == (case.num_orgs, case.quorum)
        assert mutant.scale == case.scale
        assert_eventually_clean(mutant.fault_schedule, mutant.duration * 0.6 + 1.0)
        case = mutant if rng.random() < 0.5 else case


def test_mutants_end_clean():
    # A time shift can move a recover before its crash or a heal before
    # its partition; such a mutant is drawn again. This chain draws
    # several of them.
    rng = random.Random("mutate-clean:6")
    case = random_case(rng, "orderlesschain", duration=10.0, scale=40.0)
    for _ in range(100):
        case = mutate_case(rng, case)
        assert ends_clean(case.fault_schedule)
