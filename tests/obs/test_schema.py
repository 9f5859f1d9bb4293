"""Schema tests: every emitted name is documented, and the validator
rejects malformed or undocumented traces.

``repro.obs.schema`` is the single source of truth that
docs/OBSERVABILITY.md renders; these tests keep emission sites, the
Chrome exporter, and the documented catalogue from drifting apart.
"""

import pytest

from repro.obs import schema
from repro.obs.chrome import (
    load_chrome_trace,
    phase_means_from_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from tests.obs.test_tracing import run_traced


@pytest.fixture(scope="module")
def traced():
    return run_traced(sample_interval=0.5)


# -- the catalogue itself ------------------------------------------------------


def test_schema_kinds_partition_names():
    kinds = {spec.kind for spec in schema.SCHEMA.values()}
    assert kinds <= {schema.SPAN, schema.INSTANT, schema.GAUGE, schema.COUNTER}
    names = (
        schema.SPAN_NAMES | schema.INSTANT_NAMES | schema.GAUGE_NAMES | schema.COUNTER_NAMES
    )
    assert names == set(schema.SCHEMA)
    total = (
        len(schema.SPAN_NAMES)
        + len(schema.INSTANT_NAMES)
        + len(schema.GAUGE_NAMES)
        + len(schema.COUNTER_NAMES)
    )
    assert total == len(schema.SCHEMA)  # no name has two kinds


def test_every_spec_is_fully_documented():
    for name, spec in schema.SCHEMA.items():
        assert spec.name == name
        assert spec.component and spec.unit and spec.description


def test_spec_for_unknown_name_raises():
    assert schema.spec_for("net/hop").kind == schema.SPAN
    with pytest.raises(KeyError):
        schema.spec_for("not/a/metric")


# -- emitted names vs the catalogue --------------------------------------------


def test_traced_run_emits_only_documented_names(traced):
    _, obs = traced
    assert schema.validate_collector(obs.trace) == []


def test_sample_names_are_documented_gauges_or_counters(traced):
    _, obs = traced
    for name in obs.trace.sample_names():
        assert name in schema.GAUGE_NAMES | schema.COUNTER_NAMES


def test_validate_collector_flags_undocumented_and_inverted_spans():
    from repro.obs import TraceCollector

    collector = TraceCollector()
    collector.span("made/up", 0.0, 1.0)
    collector.span("net/hop", 2.0, 1.0)  # ends before it starts
    collector.instant("also/made/up", 0.0)
    collector.sample("bogus/gauge", 0.0, 1.0)
    errors = schema.validate_collector(collector)
    assert len(errors) == 4


# -- exported chrome traces ----------------------------------------------------


def test_exported_trace_validates_and_roundtrips(tmp_path, traced):
    net, obs = traced
    path = tmp_path / "trace.json"
    payload = write_chrome_trace(obs.trace, str(path))
    assert schema.validate_chrome_trace(payload) == []
    reloaded = load_chrome_trace(str(path))
    assert reloaded == payload
    # The Table-3-style breakdown regenerates from the file alone and
    # matches the run's recorder (to export rounding).
    from_file = phase_means_from_trace(reloaded)
    assert net.recorder.phase_durations
    for name in net.recorder.phase_durations:
        assert from_file[name] == pytest.approx(1000.0 * net.recorder.mean_phase(name), abs=1e-3)


def test_validate_chrome_trace_rejects_malformed_payloads():
    assert schema.validate_chrome_trace(None)
    assert schema.validate_chrome_trace([]) == [
        "payload is not a dict with a 'traceEvents' key"
    ]
    assert schema.validate_chrome_trace({"traceEvents": "nope"})

    def only(event):
        return schema.validate_chrome_trace({"traceEvents": [event]})

    assert only("not a dict")
    assert only({"ph": "X"})  # missing name
    assert only({"ph": "X", "name": "net/hop", "ts": -1.0, "dur": 1.0})
    assert only({"ph": "X", "name": "net/hop", "ts": 0.0, "dur": -1.0})
    assert only({"ph": "X", "name": "made/up", "ts": 0.0, "dur": 1.0})
    assert only({"ph": "i", "name": "made/up", "ts": 0.0})
    assert only({"ph": "C", "name": "node/cpu/utilization", "ts": 0.0, "args": {}})
    assert only({"ph": "C", "name": "made/up", "ts": 0.0, "args": {"value": 1}})
    assert only({"ph": "B", "name": "net/hop", "ts": 0.0})  # unsupported phase
    # Metadata events carry no timestamp and are fine.
    assert only({"ph": "M", "name": "process_name", "pid": 1, "args": {"name": "x"}}) == []


def test_empty_collector_exports_empty_but_valid_trace():
    from repro.obs import TraceCollector

    payload = to_chrome_trace(TraceCollector())
    assert payload["traceEvents"] == []
    assert schema.validate_chrome_trace(payload) == []
