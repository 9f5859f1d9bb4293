"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_requires_known_experiment():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_run_fig6b_prints_table(capsys):
    # fig6b with tiny duration/scale is the cheapest real sweep.
    assert main(["run", "fig6b", "--duration", "5", "--scale", "50", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6(b)" in out
    assert "tput" in out


def test_check_iconfluence_voting(capsys):
    assert main(["check-iconfluence", "voting", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "convergent:          True" in out
    assert "invariant preserved: True" in out


def test_check_iconfluence_auction(capsys):
    assert main(["check-iconfluence", "auction", "--trials", "10"]) == 0


def test_parser_defaults():
    parser = build_parser()
    args = parser.parse_args(["run", "fig9"])
    assert args.app == "voting"
    assert args.duration == 15.0
    assert args.scale is None


@pytest.mark.parametrize("command", ["run", "bench", "explore", "report"])
def test_shared_flags_are_uniform(command):
    parser = build_parser()
    argv = [command, "fig6b"] if command == "run" else [command]
    args = parser.parse_args(argv)
    # --jobs exists everywhere with the same default.
    assert args.jobs is None
    if command != "report":
        assert args.seed == 0
        assert args.app == "voting"
        assert args.system is None


def test_max_retries_flag_sets_the_retry_budget():
    args = build_parser().parse_args(["run", "chaos", "--max-retries", "4"])
    assert args.max_retries == 4


def test_run_with_output_writes_json(tmp_path, capsys):
    import json

    out_path = str(tmp_path / "fig6b.json")
    assert (
        main(
            [
                "run",
                "fig6b",
                "--duration",
                "5",
                "--scale",
                "50",
                "--seed",
                "1",
                "--output",
                out_path,
            ]
        )
        == 0
    )
    records = json.loads(open(out_path).read())
    assert isinstance(records, list) and records
    assert records[0]["system"] == "orderlesschain"
    assert "throughput_tps" in records[0]
    assert "wrote" in capsys.readouterr().out
