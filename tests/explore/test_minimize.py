"""Delta-debug minimization against fake (instant) runners."""

import pytest

from repro.bench.config import ExperimentConfig
from repro.explore import ends_clean, minimize
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.sim.nondeterminism import ExploreProfile

FAILING = frozenset({"convergence"})

EVENTS = (
    FaultEvent(at=1.0, kind="crash", node="org1"),
    FaultEvent(at=3.0, kind="recover", node="org1"),
    FaultEvent(at=2.0, kind="partition", groups=(("org0",), ("org1", "org2", "org3"))),
    FaultEvent(at=4.0, kind="heal"),
    FaultEvent(at=2.5, kind="loss_burst", duration=1.6, loss_probability=0.3),
)


def noisy_case():
    return ExperimentConfig(
        app="voting",
        num_orgs=4,
        quorum=2,
        duration=10.0,
        scale=40.0,
        check=True,
        explore=ExploreProfile(tie_seed=1, jitter_seed=2, jitter_factor=0.4),
        fault_schedule=FaultSchedule(events=EVENTS),
    )


def test_minimize_requires_a_failure():
    with pytest.raises(ValueError):
        minimize(noisy_case(), frozenset(), lambda case: frozenset())


def test_minimize_drops_everything_when_seed_alone_fails():
    # Failure reproduces no matter what: the minimizer should strip the
    # profile and every fault event.
    minimized, spent = minimize(noisy_case(), FAILING, lambda case: FAILING)
    assert len(minimized.fault_schedule) == 0
    assert minimized.explore == ExploreProfile()
    assert spent > 0


def test_minimize_keeps_the_load_bearing_unit():
    # Failure requires the loss burst; everything else is noise.
    def runner(case):
        bursts = [e for e in case.fault_schedule.events if e.kind == "loss_burst"]
        return FAILING if bursts else frozenset()

    minimized, _ = minimize(noisy_case(), FAILING, runner)
    kinds = [event.kind for event in minimized.fault_schedule.events]
    assert kinds == ["loss_burst"]
    # Phase 3 halves the surviving window while the failure persists.
    assert minimized.fault_schedule.events[0].duration < 1.6


def test_minimize_preserves_paired_events():
    # Failure requires the crash; its recover must survive with it so
    # the minimized schedule stays eventually clean.
    def runner(case):
        kinds = {event.kind for event in case.fault_schedule.events}
        return FAILING if "crash" in kinds else frozenset()

    minimized, _ = minimize(noisy_case(), FAILING, runner)
    kinds = sorted(event.kind for event in minimized.fault_schedule.events)
    assert kinds == ["crash", "recover"]


def test_minimize_keeps_overlapping_crash_windows_clean():
    # Two overlapping crash windows on one node (a generated case that
    # ends clean). Each recover shrinks toward the crash it ends, the
    # latest earlier one; shrinking toward the node's first crash moved
    # both recovers before the second crash and left org2 crashed.
    case = noisy_case().with_(
        fault_schedule=FaultSchedule(
            events=(
                FaultEvent(at=1.193, kind="crash", node="org2"),
                FaultEvent(at=2.077, kind="crash", node="org2"),
                FaultEvent(at=3.585, kind="recover", node="org2"),
                FaultEvent(at=3.757, kind="recover", node="org2"),
            )
        )
    )

    def runner(candidate):
        crashes = [e for e in candidate.fault_schedule.events if e.kind == "crash"]
        return FAILING if crashes else frozenset()

    minimized, _ = minimize(case, FAILING, runner)
    assert ends_clean(minimized.fault_schedule)
    recovers = [e.at for e in minimized.fault_schedule.events if e.kind == "recover"]
    assert min(recovers) > 2.077
    assert max(recovers) < 3.757  # the windows did shrink


def test_minimize_rejects_candidates_that_fail_differently():
    # A candidate whose failing set changes (extra oracle trips) must
    # not be accepted — "same bug" means the identical failing set.
    def runner(case):
        if len(case.fault_schedule) < len(EVENTS):
            return frozenset({"convergence", "availability"})
        return FAILING

    minimized, _ = minimize(noisy_case(), FAILING, runner)
    assert len(minimized.fault_schedule) == len(EVENTS)


def test_minimize_respects_budget():
    calls = [0]

    def runner(case):
        calls[0] += 1
        return FAILING

    _, spent = minimize(noisy_case(), FAILING, runner, budget=3)
    assert spent == calls[0] <= 3
