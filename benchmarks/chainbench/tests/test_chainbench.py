"""Functional tests of the chainbench harness, at smoke size.

    python -m pytest benchmarks/chainbench/tests

They check the shape and the invariants of what the benchmark prints —
never a timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

CHAINBENCH = Path(__file__).resolve().parents[1]
ROOT = CHAINBENCH.parents[1]
sys.path[:0] = [str(CHAINBENCH.parent), str(ROOT / "src")]

from chainbench import layers, metricdefs, summary  # noqa: E402
from chainbench.compare import Comparison  # noqa: E402
from chainbench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = [sys.executable, str(CHAINBENCH / "run.py")]


def _suite(out: Path) -> dict:
    completed = subprocess.run(
        RUN + ["--smoke", "--out", str(out)], capture_output=True, text=True, timeout=600
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    return json.loads((out / "results.json").read_text())


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two complete smoke runs of the same commit and seed."""
    base = tmp_path_factory.mktemp("chainbench")
    return _suite(base / "a"), _suite(base / "b"), base


def _driver(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        RUN + ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.splitlines()[-1])


# -- definitions -------------------------------------------------------------


def test_benchmark_json_is_generated_from_the_definitions():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metricdefs.benchmark_json()


def test_names_units_and_counts_are_inside_the_contract():
    spec = metricdefs.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    for entry in spec["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]


# -- the full report at smoke size -----------------------------------------


def test_report_schema(smoke_runs):
    results, _, base = smoke_runs
    assert set(results["workloads"]) == set(WORKLOADS)
    assert results["smoke"] is True and results["repeats"] == 1
    assert {"nproc", "python", "kernel", "loadavg_at_start"} <= set(results["environment"])
    for name, record in results["workloads"].items():
        assert set(record["end_to_end"]) == {metric.name for metric in metricdefs.END_TO_END}
        assert set(record["per_layer"]) == {metric.name for metric in metricdefs.PER_LAYER}
        for entry in record["end_to_end"].values():
            assert isinstance(entry["value"], (int, float)) and entry["value"] > 0
        assert all(check["ok"] for check in record["checks"]), (name, record["checks"])
        budget = json.loads((base / "a" / f"{name}.budget.json").read_text())
        assert len(budget["top"]) == 20 and budget["edges"]
        trace = json.loads((base / "a" / f"{name}.trace.json").read_text())
        assert any("txn_id" in event.get("args", {}) for event in trace["traceEvents"])


def test_layer_budget_sums_to_the_profiled_total(smoke_runs):
    results, _, base = smoke_runs
    for name, record in results["workloads"].items():
        values = record["per_layer"]
        total = json.loads((base / "a" / f"{name}.budget.json").read_text())["total_s"]
        booked = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
        assert abs(booked - total) <= summary.BUDGET_TOLERANCE * total
        assert abs(sum(values[f"{layer}.share"] for layer in layers.LAYERS) - 1.0) < 1e-6


def test_simulated_clock_is_exact_across_runs_and_under_tracing(smoke_runs):
    first, second, _ = smoke_runs
    comparison = Comparison(first, second)
    assert comparison.sim_identical
    assert not [row for row in comparison.rows if row.clock == "sim" and not row.identical]
    for record in first["workloads"].values():
        passive = [check for check in record["checks"] if check["name"] == "tracing-is-passive"]
        assert passive and passive[0]["ok"]
    for name in ("sim.events", "net.sent", "crypto.verify_calls", "ledger.commit_calls"):
        for workload in WORKLOADS:
            assert (
                first["workloads"][workload]["per_layer"][name]
                == second["workloads"][workload]["per_layer"][name]
            )


def test_only_chaos_recover_injects_faults(smoke_runs):
    results, _, _ = smoke_runs
    for name, record in results["workloads"].items():
        assert (record["per_layer"]["net.dropped"] > 0) == (name == "chaos-recover")
        if name != "chaos-recover":
            assert record["per_layer"]["e2e.failed_share"] == 0


# -- driver mode -------------------------------------------------------------


@pytest.mark.parametrize("trace, metrics", [(0, metricdefs.END_TO_END), (1, metricdefs.PER_LAYER)])
def test_driver_line(trace, metrics):
    line = _driver("kernel-baseline", trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {metric.name for metric in metrics}
    for metric in metrics:
        entry = line["metrics"][metric.name]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float)) and not isinstance(entry["value"], bool)
    if trace == 1:
        # BIDL has no OrderlessChain phases: not applicable reads -1.
        assert line["metrics"]["core.p1_execution_sim_ms"]["value"] == -1
        assert line["metrics"]["crypto.sign_calls"]["value"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: nothing to measure."""
    import shutil

    shutil.copytree(
        CHAINBENCH,
        tmp_path / "benchmarks" / "chainbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "benchmarks/chainbench/run.py", "--workload", "mixed-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()


# -- units -------------------------------------------------------------------


def test_a_renamed_boundary_function_is_missing_not_an_exception():
    counts = layers.boundary_counts(
        {},
        {
            "gone.function": "repro.crypto.hashing:canonical_bytes_v2",
            "gone.method": "repro.ledger.ledger:Ledger.append_block",
            "gone.module": "repro.no_such_layer:anything",
            "still.here": "repro.crypto.hashing:canonical_bytes",
        },
    )
    assert counts == {
        "gone.function": layers.MISSING,
        "gone.method": layers.MISSING,
        "gone.module": layers.MISSING,
        "still.here": 0,
    }
    assert layers.events_run({}, loop="repro.sim.core:Simulator.spin") == layers.MISSING
    assert layers.events_run({}) == layers.MISSING  # the loop exists but popped nothing


def test_native_time_is_split_over_caller_edges():
    root = "/x/src/repro"
    sign = (f"{root}/crypto/identity.py", 10, "sign")
    apply_ = (f"{root}/crdt/store.py", 20, "apply")
    facade = (f"{root}/api.py", 5, "run")
    sha = ("~", 0, "<built-in method sha256>")
    stats = {
        facade: (1, 1, 1.0, 10.0, {}),
        sign: (4, 4, 2.0, 5.0, {facade: (4, 4, 2.0, 5.0)}),
        apply_: (2, 2, 3.0, 4.0, {facade: (2, 2, 3.0, 4.0)}),
        # 3 s from crypto, 1 s from crdt
        sha: (6, 6, 4.0, 4.0, {sign: (4, 4, 3.0, 3.0), apply_: (2, 2, 1.0, 1.0)}),
    }
    budget = layers.attribute(stats, root)
    assert budget["total_s"] == pytest.approx(10.0)
    booked = {name: entry["self_s"] for name, entry in budget["layers"].items()}
    assert booked["crypto"] == pytest.approx(5.0)
    assert booked["crdt"] == pytest.approx(4.0)
    assert booked["other"] == pytest.approx(1.0)
    assert budget["layers"]["crypto"]["calls"] == 4
    assert {(edge["caller"], edge["callee"]) for edge in budget["edges"]} == {
        ("other", "crypto"),
        ("other", "crdt"),
    }


def _results(wall: float, iqr: float, tps: float = 3000.0) -> dict:
    def entry(name, value, **extra):
        metric = metricdefs.BY_NAME[name]
        return {"value": value, "unit": metric.unit, "clock": metric.clock,
                "better": metric.better, "bound": metric.bound, **extra}

    return {
        "seed": 0,
        "workloads": {
            "mixed-default": {
                "end_to_end": {
                    "wall_norm_s": entry("wall_norm_s", wall, median=wall * 1.05, iqr=iqr, n=5),
                    "sim_commit_tps": entry("sim_commit_tps", tps),
                },
                "counts": {"submitted": 10, "committed": 10, "failed": 0, "failure_reasons": {}},
            }
        },
    }


@pytest.mark.parametrize(
    "new_wall, iqr, verdict",
    [(3.1, 0.05, "within-bound"), (4.0, 0.05, "regressed"), (2.0, 0.05, "improved"),
     (3.1, 0.9, "unresolved"), (4.0, 1.5, "unresolved")],
)
def test_compare_verdicts(new_wall, iqr, verdict):
    comparison = Comparison(_results(3.0, 0.05), _results(new_wall, iqr))
    row = next(row for row in comparison.rows if row.metric == "wall_norm_s")
    assert row.verdict == verdict
    assert comparison.sim_identical
    assert bool(comparison.regressed) == (verdict == "regressed")
    assert not Comparison(_results(3.0, 0.05), _results(3.0, 0.05, tps=2999.0)).sim_identical
