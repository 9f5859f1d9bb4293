"""One record per fact: the trace is fed by the run's TransactionRecorder.

Every phase in ``result.phase_means_ms`` and every transaction outcome
is reported once, to the recorder, which also emits the matching span
or instants when a trace is attached. These tests hold the two outputs
together for all five systems, check that each exported trace file is
schema-valid and alone regenerates the system's key phase, and pin the
traces themselves: the OrderlessChain export byte for byte, and each
baseline's events apart from the ``txn/*`` instants and ``client/txn``
spans its clients now emit through the recorder.

Regenerate the pins with ``python -m tests.pins`` (:mod:`tests.pins`).
"""

import pytest

from repro.bench.config import ExperimentConfig
from repro.bench.metrics import summarize_samples
from repro.bench.runner import run_experiment
from repro.faults import default_node_ids, smoke_schedule
from repro.obs import Observability
from repro.obs.chrome import (
    load_chrome_trace,
    phase_means_from_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.schema import validate_chrome_trace, validate_collector
from tests.pins import baseline_events_sha256, trace_sha256

SYSTEMS = ("orderlesschain", "fabric", "fabriccrdt", "bidl", "synchotstuff")
BASELINES = SYSTEMS[1:]

ORDERLESSCHAIN_TRACE_SHA256 = (
    "5d93bf69c6f22498b838a7065447c5864b03cc331ad6fd0a710b4e66910e0eef"
)
BASELINE_EVENTS_SHA256 = {
    "fabric": "f1b538ea2861c90ca556addb89284308784b6de424fda8fe86889f2d31c59412",
    "fabriccrdt": "2fb3353331b341ba1b305d81a6e701b98d91d209c098ac9403b0e047787c01e9",
    "bidl": "0bfe23540a68e1dee87df0dd9b97c401bf78e13fa9cd2ec36fbae1d69623510d",
    "synchotstuff": "9c57c4d927af58c82d28aceb82134cee3f798d2dea7fdc67f1a4839f982d12b3",
}
# The phase that dominates each system's Table-3-style breakdown.
KEY_PHASE = {
    "orderlesschain": "orderlesschain/P1/Execution",
    "fabric": "fabric/P2/Consensus",
    "fabriccrdt": "fabriccrdt/P2/Consensus",
    "bidl": "bidl/P2/Consensus",
    "synchotstuff": "hotstuff/P1/Consensus",
}


def traced_run(system):
    """``(result, trace collector)`` of a small traced, sampled run under
    the chaos-smoke fault schedule; OrderlessChain also retries, with
    resilience and snapshots."""
    knobs = (
        dict(max_retries=2, resilience=True, snapshot_interval=1.0)
        if system == "orderlesschain"
        else {}
    )
    config = ExperimentConfig(
        system=system,
        app="voting",
        num_orgs=4,
        quorum=2,
        duration=6,
        drain=6,
        scale=100,
        seed=5,
        fault_schedule=smoke_schedule(default_node_ids(system, 4)),
        **knobs,
    )
    obs = Observability(trace=True, sample_interval=1.0)
    return run_experiment(config, obs=obs), obs.trace


def pins():
    """The current pins, in the shape of the constants above."""
    traces = {system: traced_run(system)[1] for system in SYSTEMS}
    return {
        "orderlesschain": trace_sha256(traces["orderlesschain"]),
        **{system: baseline_events_sha256(traces[system]) for system in BASELINES},
    }


@pytest.fixture(scope="module")
def runs():
    return {system: traced_run(system) for system in SYSTEMS}


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_recorded_phase_is_a_span_with_the_same_mean(runs, system):
    result, trace = runs[system]
    assert result.phase_means_ms
    from_trace = phase_means_from_trace(to_chrome_trace(trace))
    for name, mean in result.phase_means_ms.items():
        assert name in from_trace
        assert from_trace[name] == pytest.approx(mean, abs=1e-3)


@pytest.mark.parametrize("system", SYSTEMS)
def test_exported_trace_is_valid_and_regenerates_the_breakdown(runs, system, tmp_path):
    _, trace = runs[system]
    assert validate_collector(trace) == []
    path = str(tmp_path / f"{system}.json")
    assert validate_chrome_trace(write_chrome_trace(trace, path)) == []
    # The key phase regenerates from the file alone.
    means = phase_means_from_trace(load_chrome_trace(path))
    assert KEY_PHASE[system] in means
    assert all(mean >= 0 for mean in means.values())
    assert summarize_samples(trace), "sampler recorded no node time-series"


def test_fabriccrdt_phases_reach_the_breakdown(runs):
    phases = {"fabriccrdt/P1/Endorse", "fabriccrdt/P2/Consensus", "fabriccrdt/P3/Merge"}
    assert phases <= set(runs["fabriccrdt"][0].phase_means_ms)


@pytest.mark.parametrize("system", SYSTEMS)
def test_one_outcome_event_per_recorded_outcome(runs, system):
    result, trace = runs[system]
    counts = {}
    for instant in trace.instants:
        counts[instant.name] = counts.get(instant.name, 0) + 1
    assert result.submitted > 0
    assert counts.get("txn/submitted", 0) == result.submitted
    assert counts.get("txn/committed", 0) == result.committed
    assert counts.get("txn/failed", 0) == result.failed
    assert len(trace.spans_named("client/txn")) == result.committed + result.failed


def test_orderlesschain_trace_is_unchanged(runs):
    assert trace_sha256(runs["orderlesschain"][1]) == ORDERLESSCHAIN_TRACE_SHA256


@pytest.mark.parametrize("system", BASELINES)
def test_baseline_trace_events_are_unchanged(runs, system):
    assert baseline_events_sha256(runs[system][1]) == BASELINE_EVENTS_SHA256[system]
