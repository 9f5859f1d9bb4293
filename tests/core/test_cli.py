"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.report import all_specs


def test_list_command(capsys):
    assert main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(all_specs()) == 25
    assert listed == [spec.spec_id for spec in all_specs()] + ["chaos"]


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
    # Omitted --duration / --scale leave the spec's own values in place.
    assert args.duration is None
    assert args.scale is None


@pytest.fixture
def spec_runs(monkeypatch):
    """Stub ``ExperimentSpec.run``; collect (spec id, overrides) per call."""
    from repro.report.spec import ExperimentSpec

    calls = []

    def fake_run(self, jobs=None, quick=False, overrides=None):
        calls.append((self.spec_id, overrides))
        return {} if self.kind == "comparison" else []

    monkeypatch.setattr(ExperimentSpec, "run", fake_run)
    return calls


def test_panels_are_selected_by_id_not_by_app(spec_runs):
    assert main(["run", "fig9-auction"]) == 0
    assert [spec_id for spec_id, _ in spec_runs] == ["fig9-auction"]
    # --app no longer picks the panel: fig9 is the group, and both of
    # its panels run with the application the catalog gives them.
    spec_runs.clear()
    assert main(["run", "fig9", "--app", "auction"]) == 0
    assert [spec_id for spec_id, _ in spec_runs] == ["fig9-voting", "fig9-auction"]
    assert all("app" not in overrides for _, overrides in spec_runs)


def test_run_overrides_default_to_the_specs_own_values(spec_runs):
    assert main(["run", "fig6b"]) == 0
    assert main(["run", "fig6b", "--duration", "5", "--scale", "50", "--seed", "1"]) == 0
    assert [overrides for _, overrides in spec_runs] == [
        {"seed": 0},
        {"duration": 5.0, "scale": 50.0, "seed": 1},
    ]


def test_run_check_flag_is_gone():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "chaos", "--check"])


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
