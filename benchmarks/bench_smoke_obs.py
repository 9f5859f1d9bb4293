"""Observability smoke test: export a trace and validate it end to end.

Runs one small traced experiment per system, writes the Chrome trace
JSON, validates it against the documented schema
(docs/OBSERVABILITY.md / ``repro.obs.schema``), and regenerates the
Table-3-style phase breakdown from the *exported file* — proving the
trace artifact alone carries the paper's breakdown. Each phase is one
``recorder.phase`` call, which feeds ``result.phase_means_ms`` and the
trace span alike, so the two cannot disagree.
"""

import pytest

from repro.bench.config import ExperimentConfig
from repro.bench.metrics import summarize_samples
from repro.bench.reporting import format_breakdown, format_node_metrics
from repro.bench.runner import run_experiment
from repro.obs.chrome import load_chrome_trace, phase_means_from_trace, write_chrome_trace
from repro.obs.schema import validate_chrome_trace, validate_collector

SYSTEM_PHASE = {
    "orderlesschain": "orderlesschain/P1/Execution",
    "fabric": "fabric/P2/Consensus",
    "fabriccrdt": "fabriccrdt/P1/Endorse",
    "bidl": "bidl/P2/Consensus",
    "synchotstuff": "hotstuff/P1/Consensus",
}


@pytest.mark.parametrize("system", sorted(SYSTEM_PHASE))
def test_traced_run_exports_valid_schema(system, tmp_path, benchmark, emit_report):
    config = ExperimentConfig(
        system=system,
        app="voting",
        arrival_rate=1500.0,
        num_orgs=8,
        quorum=4,
        duration=5.0,
        seed=0,
        trace=True,
        sample_interval=0.5,
    )
    result = benchmark.pedantic(lambda: run_experiment(config), rounds=1, iterations=1)
    collector = result.observability.trace
    assert collector.spans, "traced run produced no spans"
    assert validate_collector(collector) == []

    path = tmp_path / f"trace_{system}.json"
    payload = write_chrome_trace(collector, str(path))
    assert validate_chrome_trace(payload) == []

    # The Table-3-style breakdown must regenerate from the file alone.
    means = phase_means_from_trace(load_chrome_trace(str(path)))
    assert means
    assert SYSTEM_PHASE[system] in means
    assert all(mean >= 0 for mean in means.values())

    series = summarize_samples(collector)
    assert series, "sampler recorded no node time-series"
    emit_report(
        format_breakdown(f"smoke trace breakdown - {system}", means)
        + "\n\n"
        + format_node_metrics(f"node metrics - {system}", series)
    )
