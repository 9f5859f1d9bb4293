"""Replay-determinism regression: a committed counterexample must
reproduce its fingerprint and failing oracles, forever.

The artifact under ``data/`` was produced by the explorer against the
``crdt-merge`` planted bug (minimized to zero fault events and an
inactive profile — the base seed alone reproduces it). Its pinned
fingerprint changes *only* when a commit deliberately changes protocol
or workload behavior; like the golden seeds in
``tests/chaos/test_determinism.py``, regenerate it consciously (see
docs/TESTING.md), never to silence a red test.
"""

import os

from repro.explore import load_artifact, replay, run_case

ARTIFACT = os.path.join(os.path.dirname(__file__), "data", "crdt-merge-counterexample.schedule.json")


def pins():
    """The artifact's fingerprint as a run of its case gives it today."""
    return run_case(load_artifact(ARTIFACT).case).fingerprint


def test_committed_artifact_is_wellformed():
    artifact = load_artifact(ARTIFACT)
    assert artifact.case.planted_bug == "crdt-merge"
    assert artifact.case.app == "synthetic"
    assert artifact.failures == ("convergence",)
    # Scale is pinned inside the case: replay ignores REPRO_BENCH_SCALE.
    assert artifact.case.scale > 0


def test_replay_is_deterministic_and_reproduces_the_artifact(monkeypatch):
    # A different machine profile must not leak in.
    monkeypatch.setenv("REPRO_BENCH_SCALE", "1")
    result = replay(ARTIFACT)
    assert result.deterministic, "two replays of one case diverged"
    assert result.reproduced, (
        "replay no longer matches the committed counterexample. If a "
        "commit deliberately changed protocol or workload behavior, "
        "regenerate tests/explore/data/ (docs/TESTING.md); otherwise "
        "this is a determinism regression."
    )


def test_fingerprint_is_byte_identical_across_runs():
    artifact = load_artifact(ARTIFACT)
    first = run_case(artifact.case)
    second = run_case(artifact.case)
    assert first.fingerprint == second.fingerprint == artifact.fingerprint
    assert frozenset(first.failures) == frozenset(artifact.failures)
