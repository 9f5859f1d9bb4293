"""The parallel sweep runner: ordering, equivalence, crash handling."""

import json
import os

import pytest

from repro.bench.config import ExperimentConfig
from repro.bench.metrics import ExperimentResult
from repro.bench import parallel
from repro.bench.parallel import SweepFailure, expect_results, run_sweep
from repro.errors import SweepError


def _fig6a_configs():
    """A small Figure-6(a)-style arrival-rate sweep."""
    return [
        ExperimentConfig(
            system="orderlesschain",
            app="synthetic",
            arrival_rate=rate,
            num_orgs=4,
            quorum=2,
            duration=1.5,
            seed=11,
        )
        for rate in (500, 1000, 1500, 2000)
    ]


def _records(results):
    return json.dumps(
        [result.to_record() for result in results], sort_keys=True, default=str
    )


def test_serial_and_parallel_sweeps_are_identical():
    """jobs=1 and jobs=4 must produce byte-identical results."""
    serial = expect_results(run_sweep(_fig6a_configs(), jobs=1))
    fanned = expect_results(run_sweep(_fig6a_configs(), jobs=4))
    assert _records(serial) == _records(fanned)


def test_results_come_back_in_submission_order():
    configs = _fig6a_configs()
    results = expect_results(run_sweep(configs, jobs=2))
    assert [r.arrival_rate for r in results] == [c.arrival_rate for c in configs]
    assert all(isinstance(r, ExperimentResult) for r in results)


def _explode_point(config):
    if config.arrival_rate == 1000:
        raise RuntimeError("boom")
    return parallel.run_experiment(config)


def _die_point(config):
    if config.arrival_rate == 1000:
        os._exit(13)
    return parallel.run_experiment(config)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_point_does_not_abort_the_sweep(monkeypatch, jobs):
    monkeypatch.setattr(parallel, "_run_point", _explode_point)
    configs = _fig6a_configs()
    outcomes = run_sweep(configs, jobs=jobs)
    assert len(outcomes) == len(configs)
    failures = [o for o in outcomes if isinstance(o, SweepFailure)]
    assert len(failures) == 1
    assert failures[0].index == 1
    assert "boom" in failures[0].error
    assert "RuntimeError" in failures[0].details
    successes = [o for o in outcomes if isinstance(o, ExperimentResult)]
    assert len(successes) == 3


def test_a_dead_worker_is_reported_and_the_sweep_completes(monkeypatch):
    """A hard worker death (os._exit) must not lose the whole sweep."""
    monkeypatch.setattr(parallel, "_run_point", _die_point)
    configs = _fig6a_configs()
    outcomes = run_sweep(configs, jobs=2)
    assert len(outcomes) == len(configs)
    assert any(isinstance(o, SweepFailure) for o in outcomes)
    # The non-crashing points must all have produced results (possibly
    # via the retry round after the first pool broke).
    for index in (0, 2, 3):
        assert isinstance(outcomes[index], ExperimentResult), outcomes[index]


def test_expect_results_raises_with_every_failure_listed(monkeypatch):
    monkeypatch.setattr(parallel, "_run_point", _explode_point)
    outcomes = run_sweep(_fig6a_configs(), jobs=1)
    with pytest.raises(SweepError, match="1 of 4 sweep points failed"):
        expect_results(outcomes)


def test_invalid_jobs_rejected():
    with pytest.raises(SweepError):
        run_sweep(_fig6a_configs()[:1], jobs=0)


def test_empty_sweep_returns_empty():
    assert run_sweep([], jobs=4) == []
