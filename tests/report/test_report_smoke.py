"""Tier-1 smoke: the real CLI regenerates two small figures.

Runs ``python -m repro report --quick`` over the designated smoke pair
(:data:`repro.report.catalog.SMOKE_SPEC_IDS` — one sweep, one
ablation) end to end: real simulations, real renderers, real drift
check. Everything writes into a temp directory, so the committed
EXPERIMENTS.md is untouched.
"""

import json

import pytest

from repro.cli import main
from repro.report.catalog import SMOKE_SPEC_IDS


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("report-smoke")
    argv = [
        "report",
        "--quick",
        "--jobs",
        "2",
        "--figures",
        "smoke",
        "--experiments-md",
        str(root / "EXPERIMENTS.md"),
        "--manifest",
        str(root / "experiments.json"),
        "--cache-dir",
        str(root / "cache"),
    ]
    exit_code = main(argv)
    return root, argv, exit_code


def test_smoke_run_reproduces(smoke_run):
    root, _, exit_code = smoke_run
    assert exit_code == 0

    text = (root / "EXPERIMENTS.md").read_text()
    for spec_id in SMOKE_SPEC_IDS:
        assert f"<!-- repro:begin {spec_id} " in text
    assert text.count("**Verdict: reproduced**") == len(SMOKE_SPEC_IDS)
    assert "NOT reproduced" not in text

    manifest = json.loads((root / "experiments.json").read_text())
    assert set(manifest["experiments"]) == set(SMOKE_SPEC_IDS)
    assert manifest["quick"] is True
    for spec_id in SMOKE_SPEC_IDS:
        assert manifest["experiments"][spec_id]["verdict"] == "reproduced"


def test_smoke_check_agrees_with_what_it_wrote(smoke_run):
    # The drift gate over the artifacts just written: cache hits, no
    # drift, exit 0 — exactly the CI docs job at work.
    root, argv, _ = smoke_run
    assert main(argv + ["--check"]) == 0

    # And a single mutated table cell makes it fail.
    path = root / "EXPERIMENTS.md"
    original = path.read_text()
    lines = original.splitlines()
    target = next(i for i, line in enumerate(lines) if line.startswith("| 16 |"))
    lines[target] = lines[target].replace("| 16 |", "| 17 |", 1)
    path.write_text("\n".join(lines) + "\n")
    try:
        assert main(argv + ["--check"]) == 1
    finally:
        path.write_text(original)
