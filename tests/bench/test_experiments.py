"""Smoke tests for every panel of the experiment catalog.

Each spec runs once at a tiny operating point (high scale-down, short
duration, trimmed grids) — enough to exercise the builders, the one
executor and the result shapes; the paper-shape assertions live in the
specs' checks (``benchmarks/bench_catalog.py``, ``repro report``).
"""

import functools

import pytest

from repro.bench import experiments
from tests.chaos.harness import multichannel_chaos_commits
from repro.report import all_specs, get_spec

TINY = dict(duration=4.0, scale=60.0, seed=7)

# Per-panel overrides on top of TINY; panels not listed run their
# full-mode grid.
TRIMMED = {
    "fig6a": {"grid": [1000, 3000]},
    "fig6b": {"grid": [8, 16]},
    "fig6c": {"grid": [2, 4]},
    "fig6d": {"grid": [2, 4]},
    "fig6t-ops": {"grid": [2]},
    "fig6t-gossip": {"grid": [1, 15]},
    "fig7": {"org_counts": [16], "grid": [1000, 2000]},
    # Long enough for the f:3 window to hurt.
    "fig8a": {"duration": 24.0, "seed": 3},
    "fig8b": {"duration": 2.0},
    "fig8t-clients": {"grid": [0.5]},
    "fig9-voting": {"grid": [500]},
    "fig9-auction": {"grid": [500], "duration": 2.0},
    "fig10-voting": {"grid": [500], "duration": 2.0},
    "fig10-auction": {"grid": [500]},
    "abl-gossip": {"grid": [1.0]},
    "resilience-avail": {"grid": [1]},
    "multichannel": {"grid": [1, 2]},
}


@functools.lru_cache(maxsize=None)
def tiny(spec_id):
    """The spec's records at the tiny point (each panel simulated once)."""
    return get_spec(spec_id).run(overrides={**TINY, **TRIMMED.get(spec_id, {})})


def labels(spec_id):
    return [record[get_spec(spec_id).x_label] for record in tiny(spec_id)]


@pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.spec_id)
def test_every_panel_runs(spec):
    records = tiny(spec.spec_id)
    if spec.kind == "sweep":
        assert records and all(spec.x_label in record for record in records)
    elif spec.kind == "comparison":
        assert records and all(sweep for sweep in records.values())
    elif spec.kind == "timeline":
        assert records["timeline"]  # bucketized committed throughput
    else:  # breakdown / scalar: one projection per system
        assert records and all(value is not None for value in records.values())


def test_fig6a_shape():
    assert labels("fig6a") == [1000, 3000]
    assert all(r["committed"] > 0 for r in tiny("fig6a"))


def test_fig6b_shape():
    assert labels("fig6b") == [8, 16]


def test_fig6c_labels():
    assert labels("fig6c") == ["2 of 16", "4 of 16"]


def test_fig6d_shape():
    assert all(r["committed"] > 0 for r in tiny("fig6d"))


def test_text_configs_run():
    assert len(tiny("fig6t-ops")) == 1
    assert len(tiny("fig6t-crdt")) == 3
    assert labels("fig6t-mix") == ["R10M90", "R30M70", "R50M50", "R70M30", "R90M10"]
    assert labels("fig6t-skew") == ["uniform", "normal"]
    assert len(tiny("fig6t-gossip")) == 2


def test_fig7_series_per_org_count():
    series = tiny("fig7")
    assert set(series) == {"16 orgs"}
    assert len(series["16 orgs"]) == 2


def test_fig8_timeline_and_failures():
    record = tiny("fig8a")
    assert record["timeline"]  # bucketized committed throughput
    assert record["failed"] > 0  # the f:3 window hurts


def test_fig8_byzantine_clients():
    assert labels("fig8t-clients") == ["50%"]
    assert tiny("fig8t-clients")[0]["failed"] > 0


def test_fig9_and_fig10_series():
    for app in ("voting", "auction"):
        assert set(tiny(f"fig9-{app}")) == {"orderlesschain", "fabric", "fabriccrdt"}
        assert set(tiny(f"fig10-{app}")) == {"orderlesschain", "bidl", "synchotstuff"}


def test_table3_systems_and_phases():
    rows = tiny("table3")
    assert set(rows) == {"orderlesschain", "fabric", "bidl", "synchotstuff"}
    assert "orderlesschain/P1/Execution" in rows["orderlesschain"]
    assert "fabric/P2/Consensus" in rows["fabric"]


def test_ablations_run():
    assert len(tiny("abl-gossip")) == 1


def test_resource_utilization_comparison():
    utilizations = tiny("resource-util")
    assert set(utilizations) == {"orderlesschain", "fabric"}
    assert all(0.0 <= u <= 1.0 for u in utilizations.values())


def test_multichannel_scaling_monotone_committed():
    assert labels("multichannel") == ["1", "2"]
    committed = [r["committed"] for r in tiny("multichannel")]
    assert committed[1] > committed[0] > 0
    assert all(r["oracles_ok"] for r in tiny("multichannel"))


def test_resilience_arms_are_labelled_and_green():
    assert labels("resilience-avail") == ["fixed/seed8", "adaptive/seed8"]
    assert all(r["oracles_ok"] for r in tiny("resilience-avail"))


def test_multichannel_chaos_smoke(monkeypatch):
    result, by_channel = multichannel_chaos_commits(
        monkeypatch, duration=20.0, scale=60.0, seed=7
    )
    assert result.check_report.ok
    assert set(by_channel) == {"ch0:voting", "ch1:auction"}
