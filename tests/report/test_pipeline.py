"""The report pipeline end to end, with stubbed experiment runners.

Real sweeps are exercised by ``test_report_smoke.py`` (and the whole
``benchmarks/`` suite); here the runners are stubs so resume, splicing,
drift detection, and exit codes can be tested in milliseconds.
"""

import json

import pytest

from repro.report import pipeline as pipeline_mod
from repro.report.envinfo import ENVIRONMENT_KEYS
from repro.report.pipeline import run_report
from repro.report.spec import ExperimentSpec


def never_built(**params):
    raise AssertionError("stubbed specs are never built: ExperimentSpec.run is patched")


def fake_specs():
    return [
        ExperimentSpec(
            spec_id=spec_id,
            kind="scalar",
            build=never_built,
            section_title=f"Fake {spec_id}",
            paper_claim=f"claim for {spec_id}",
            params={"duration": 6.0},
        )
        for spec_id in ("fake-a", "fake-b")
    ]


CANNED = {
    "fake-a": {"alpha": 1.5, "beta": 2.0},
    "fake-b": {"gamma": 0.25},
}


@pytest.fixture
def stubbed(monkeypatch):
    """Patch the catalog selection and the runner; count executions."""
    executed = []

    def fake_select(names=None):
        specs = fake_specs()
        if not names:
            return specs
        return [s for s in specs if s.spec_id in names]

    def fake_run(self, jobs=None, quick=False, overrides=None):
        executed.append(self.spec_id)
        return CANNED[self.spec_id]

    monkeypatch.setattr(pipeline_mod, "select_specs", fake_select)
    monkeypatch.setattr(ExperimentSpec, "run", fake_run)
    return executed


@pytest.fixture
def paths(tmp_path):
    return dict(
        experiments_md=tmp_path / "EXPERIMENTS.md",
        manifest_path=tmp_path / "experiments.json",
        cache_dir=tmp_path / "cache",
        out_dir=tmp_path / "out",
    )


def run(check=False, figures=None, **paths):
    return run_report(figures=figures, check=check, echo=lambda line: None, **paths)


def test_first_run_writes_everything(stubbed, paths):
    outcome = run(**paths)
    assert outcome.exit_code == 0
    assert stubbed == ["fake-a", "fake-b"]
    assert [r.cached for r in outcome.runs] == [False, False]

    text = paths["experiments_md"].read_text()
    for spec_id in ("fake-a", "fake-b"):
        assert f"<!-- repro:begin {spec_id} " in text
        assert f"<!-- repro:end {spec_id} -->" in text
    # No check registered -> measured, honestly reported as such.
    assert "measured (no shape checks registered)" in text

    manifest = json.loads(paths["manifest_path"].read_text())
    assert set(manifest["experiments"]) == {"fake-a", "fake-b"}
    assert manifest["experiments"]["fake-a"]["records"] == CANNED["fake-a"]
    # The volatile block carries exactly the shared keys, all filled.
    assert set(manifest["environment"]) == set(ENVIRONMENT_KEYS)
    assert set(ENVIRONMENT_KEYS) == {"python", "platform", "timestamp"}
    assert all(manifest["environment"].values())
    assert (paths["out_dir"] / "fake-a.csv").exists()
    assert (paths["out_dir"] / "fake-b.csv").exists()


def test_second_run_hits_cache_and_is_byte_identical(stubbed, paths):
    run(**paths)
    first_md = paths["experiments_md"].read_text()
    first_manifest = json.loads(paths["manifest_path"].read_text())
    stubbed.clear()

    outcome = run(**paths)
    assert stubbed == []  # nothing re-executed
    assert [r.cached for r in outcome.runs] == [True, True]
    assert paths["experiments_md"].read_text() == first_md

    second_manifest = json.loads(paths["manifest_path"].read_text())
    for manifest in (first_manifest, second_manifest):
        manifest.pop("environment")
        for entry in manifest["experiments"].values():
            entry.pop("cached")
    assert second_manifest == first_manifest


def test_resume_runs_only_missing_experiments(stubbed, paths):
    # A killed sweep leaves some artifacts behind; the rerun executes
    # exactly the missing experiments.
    run(**paths)
    stubbed.clear()

    victim = next(paths["cache_dir"].glob("fake-b-*.json"))
    victim.unlink()
    outcome = run(**paths)
    assert stubbed == ["fake-b"]
    assert {r.spec.spec_id: r.cached for r in outcome.runs} == {
        "fake-a": True,
        "fake-b": False,
    }


def test_subset_splices_without_touching_other_sections(stubbed, paths):
    run(**paths)
    before = paths["experiments_md"].read_text()
    stubbed.clear()

    outcome = run(figures=["fake-b"], **paths)
    assert [r.spec.spec_id for r in outcome.runs] == ["fake-b"]
    # Same results -> splice reproduces the identical document, and the
    # untouched figure keeps its manifest entry (subset merge).
    assert paths["experiments_md"].read_text() == before
    manifest = json.loads(paths["manifest_path"].read_text())
    assert set(manifest["experiments"]) == {"fake-a", "fake-b"}


def test_check_passes_then_fails_on_mutated_cell(stubbed, paths):
    run(**paths)

    clean = run(check=True, **paths)
    assert clean.exit_code == 0
    assert clean.drifts == []

    # Mutate one table cell in the committed document -> drift.
    text = paths["experiments_md"].read_text()
    assert "1.500" in text
    paths["experiments_md"].write_text(text.replace("1.500", "1.501", 1))
    drifted = run(check=True, **paths)
    assert drifted.exit_code == 1
    assert any("fake-a" in drift and "differs" in drift for drift in drifted.drifts)


def test_check_fails_on_mutated_manifest(stubbed, paths):
    run(**paths)
    manifest = json.loads(paths["manifest_path"].read_text())
    manifest["experiments"]["fake-b"]["records"]["gamma"] = 0.75
    paths["manifest_path"].write_text(json.dumps(manifest))

    drifted = run(check=True, **paths)
    assert drifted.exit_code == 1
    assert any("fake-b" in drift for drift in drifted.drifts)


def test_check_fails_on_missing_document(stubbed, paths):
    outcome = run(check=True, **paths)
    assert outcome.exit_code == 1
    assert any("missing" in drift for drift in outcome.drifts)


def test_failing_check_sets_exit_code(stubbed, paths, monkeypatch):
    from repro.report import checks as checks_mod

    def always_fails(records, ctx):
        return False, "forced failure"

    monkeypatch.setitem(checks_mod.CHECKS, "test-always-fails", always_fails)
    failing = [
        ExperimentSpec(
            spec_id="fake-a",
            kind="scalar",
            build=never_built,
            section_title="Fake fake-a",
            paper_claim="claim",
            params={"duration": 6.0},
            checks=("test-always-fails",),
        )
    ]
    monkeypatch.setattr(pipeline_mod, "select_specs", lambda names=None: failing)

    outcome = run(**paths)
    assert outcome.exit_code == 1
    assert outcome.runs[0].verdict.startswith("NOT reproduced")
    assert "test-always-fails" in paths["experiments_md"].read_text()
