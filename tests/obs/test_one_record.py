"""One record per fact: the trace is fed by the run's TransactionRecorder.

Every phase in ``result.phase_means_ms`` and every transaction outcome
is reported once, to the recorder, which also emits the matching span
or instants when a trace is attached. These tests hold the two outputs
together for all five systems, and pin the traces themselves: the
OrderlessChain export byte for byte, and each baseline's events apart
from the ``txn/*`` instants and ``client/txn`` spans its clients now
emit through the recorder.

Regenerate the pins (only when a change deliberately alters a trace)
by printing :func:`pins`::

    PYTHONPATH=src:. python -c "from tests.obs.test_one_record import pins; print(pins())"
"""

import hashlib
import json

import pytest

from repro.bench.config import ExperimentConfig
from repro.bench.runner import run_experiment
from repro.faults import default_node_ids, smoke_schedule
from repro.obs.chrome import phase_means_from_trace, to_chrome_trace

SYSTEMS = ("orderlesschain", "fabric", "fabriccrdt", "bidl", "synchotstuff")
BASELINES = SYSTEMS[1:]

ORDERLESSCHAIN_TRACE_SHA256 = (
    "5d93bf69c6f22498b838a7065447c5864b03cc331ad6fd0a710b4e66910e0eef"
)
BASELINE_EVENTS_SHA256 = {
    "fabric": "f1b538ea2861c90ca556addb89284308784b6de424fda8fe86889f2d31c59412",
    "fabriccrdt": "fdb9ee58c1ea47bfcef3d290637948e8fa8c28758e38d6ec8e02045bd50eb133",
    "bidl": "0bfe23540a68e1dee87df0dd9b97c401bf78e13fa9cd2ec36fbae1d69623510d",
    "synchotstuff": "9c57c4d927af58c82d28aceb82134cee3f798d2dea7fdc67f1a4839f982d12b3",
}


def traced_run(system):
    """A small traced, sampled run under the chaos-smoke fault schedule;
    OrderlessChain also retries, with resilience and snapshots."""
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
        trace=True,
        sample_interval=1.0,
        fault_schedule=smoke_schedule(default_node_ids(system, 4)),
        **knobs,
    )
    return run_experiment(config)


def trace_sha256(result):
    """sha256 of the exported trace as ``write_chrome_trace`` writes it."""
    payload = to_chrome_trace(result.observability.trace)
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def baseline_events_sha256(result):
    """sha256 of the sorted (name, node, txn_id, ts, dur, args) events,
    leaving out the outcome events baseline clients now emit."""
    events = to_chrome_trace(result.observability.trace)["traceEvents"]
    nodes = {e["pid"]: e["args"]["name"] for e in events if e["name"] == "process_name"}
    rows = []
    for event in events:
        if event["ph"] == "M" or event["name"].startswith("txn/") or event["name"] == "client/txn":
            continue
        args = dict(event["args"])
        txn_id = args.pop("txn_id", "")
        rows.append(
            (
                event["name"],
                nodes[event["pid"]],
                txn_id,
                event["ts"],
                event.get("dur", -1.0),
                json.dumps(args, sort_keys=True),
            )
        )
    return hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest()


def pins():
    """The current pins, in the shape of the constants above."""
    runs = {system: traced_run(system) for system in SYSTEMS}
    return {
        "orderlesschain": trace_sha256(runs["orderlesschain"]),
        **{system: baseline_events_sha256(runs[system]) for system in BASELINES},
    }


@pytest.fixture(scope="module")
def runs():
    return {system: traced_run(system) for system in SYSTEMS}


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_recorded_phase_is_a_span_with_the_same_mean(runs, system):
    result = runs[system]
    assert result.phase_means_ms
    from_trace = phase_means_from_trace(to_chrome_trace(result.observability.trace))
    for name, mean in result.phase_means_ms.items():
        assert name in from_trace
        assert from_trace[name] == pytest.approx(mean, abs=1e-3)


def test_fabriccrdt_phases_reach_the_breakdown(runs):
    assert {"fabriccrdt/P1/Endorse", "fabriccrdt/P3/Merge"} <= set(
        runs["fabriccrdt"].phase_means_ms
    )


@pytest.mark.parametrize("system", SYSTEMS)
def test_one_outcome_event_per_recorded_outcome(runs, system):
    result = runs[system]
    trace = result.observability.trace
    counts = {}
    for instant in trace.instants:
        counts[instant.name] = counts.get(instant.name, 0) + 1
    assert result.submitted > 0
    assert counts.get("txn/submitted", 0) == result.submitted
    assert counts.get("txn/committed", 0) == result.committed
    assert counts.get("txn/failed", 0) == result.failed
    assert len(trace.spans_named("client/txn")) == result.committed + result.failed


def test_orderlesschain_trace_is_unchanged(runs):
    assert trace_sha256(runs["orderlesschain"]) == ORDERLESSCHAIN_TRACE_SHA256


@pytest.mark.parametrize("system", BASELINES)
def test_baseline_trace_events_are_unchanged(runs, system):
    assert baseline_events_sha256(runs[system]) == BASELINE_EVENTS_SHA256[system]
