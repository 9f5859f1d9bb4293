"""End-to-end explorer smoke via the CLI (tier-1 speed: tiny runs).

The acceptance loop from the paper-reproduction harness: plant a bug,
explore until the oracles trip, minimize, write the ``*.schedule.json``
artifact, then replay it from the file alone.
"""

import os

from repro.cli import main
from repro.explore import load_artifact


def run_cli(*argv):
    return main(list(argv))


def test_planted_bug_found_minimized_and_replayable(tmp_path, capsys):
    out_dir = str(tmp_path)
    # The crdt-merge plant lives in GCounter.apply: the synthetic app
    # exercises it, the voting app (MVRegisters) never would.
    code = run_cli(
        "explore",
        "--system",
        "orderlesschain",
        "--app",
        "synthetic",
        "--executions",
        "5",
        "--duration",
        "8",
        "--scale",
        "40",
        "--plant-bug",
        "crdt-merge",
        "--out-dir",
        out_dir,
    )
    assert code == 1, "a planted bug must surface as a violation (exit 1)"
    out = capsys.readouterr().out
    assert "violation:" in out
    assert "replay verified: True" in out

    artifacts = [f for f in os.listdir(out_dir) if f.endswith(".schedule.json")]
    assert len(artifacts) == 1
    path = os.path.join(out_dir, artifacts[0])
    artifact = load_artifact(path)
    assert artifact.case.planted_bug == "crdt-merge"
    assert "convergence" in artifact.failures

    # Replay from the artifact alone reproduces the identical outcome.
    assert run_cli("explore", "--replay", path) == 0
    replay_out = capsys.readouterr().out
    assert "reproduced" in replay_out.lower()


def test_green_sweep_exits_zero(tmp_path):
    code = run_cli(
        "explore",
        "--system",
        "orderlesschain",
        "--executions",
        "3",
        "--duration",
        "8",
        "--scale",
        "40",
        "--seed",
        "2",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    assert not any(
        name.endswith(".schedule.json") for name in os.listdir(str(tmp_path))
    ), "a green sweep must not write counterexample artifacts"


def test_unpatched_code_stays_green_after_a_planted_run(tmp_path):
    # The plant is a context manager: after an exploration with a
    # planted bug, the pristine code path must be fully restored.
    assert (
        run_cli(
            "explore",
            "--system",
            "orderlesschain",
            "--app",
            "synthetic",
            "--executions",
            "1",
            "--duration",
            "8",
            "--scale",
            "40",
            "--plant-bug",
            "crdt-merge",
            "--out-dir",
            str(tmp_path / "planted"),
        )
        == 1
    )
    assert (
        run_cli(
            "explore",
            "--system",
            "orderlesschain",
            "--app",
            "synthetic",
            "--executions",
            "2",
            "--duration",
            "8",
            "--scale",
            "40",
            "--out-dir",
            str(tmp_path / "clean"),
        )
        == 0
    )
