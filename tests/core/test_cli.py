"""Tests for the command-line interface."""

import pytest

from repro.bench.config import SYSTEMS
from repro.cli import build_parser, main
from repro.report import all_specs


def test_list_command(capsys):
    assert main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(all_specs()) == 22
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
    # --app does not pick the panel: fig9 is the group, and both of its
    # panels run with the application the catalog gives them.
    spec_runs.clear()
    assert main(["run", "fig9"]) == 0
    assert [spec_id for spec_id, _ in spec_runs] == ["fig9-voting", "fig9-auction"]
    assert all("app" not in overrides for _, overrides in spec_runs)
    # No panel reads --app, so asking for one is an error, not a no-op.
    spec_runs.clear()
    assert main(["run", "fig9", "--app", "auction"]) == 2
    assert spec_runs == []


@pytest.mark.parametrize(
    "argv",
    [
        [
            "run", "abl-gossip", "--app", "auction", "--system", "fabric",
            "--faults", "/nonexistent.json", "--resilience", "--duration", "2", "--scale", "200",
        ],
        ["run", "fig6b", "--max-retries", "2"],
        ["run", "fig6b", "--snapshot-interval", "5"],
        ["run", "fig6b", "fig9", "--system", "fabric"],
        ["run", "fig6b", "table3", "--app", "auction"],
    ],
    ids=["run-every-chaos-flag", "run-max-retries", "run-snapshot-interval",
         "run-several-system", "run-several-app"],
)
def test_flags_no_selected_entry_reads_are_an_error(spec_runs, capsys, argv):
    assert main(argv) == 2
    assert spec_runs == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "chaos" in captured.err


def test_chaos_reads_the_chaos_flags(monkeypatch, capsys):
    from repro.cli import CHAOS_FLAGS

    seen = {}

    def fake_chaos(args):
        seen.update({flag: getattr(args, flag) for flag in CHAOS_FLAGS})
        return "chaos: all oracles passed", [], 0

    monkeypatch.setattr("repro.cli._run_chaos", fake_chaos)
    argv = ["run", "chaos", "--app", "auction", "--system", "fabric", "--resilience",
            "--max-retries", "2", "--snapshot-interval", "5", "--faults", "s.json"]
    assert main(argv) == 0
    assert seen == {"app": "auction", "system": "fabric", "resilience": True,
                    "max_retries": 2, "snapshot_interval": 5.0, "faults": "s.json"}


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


def test_bench_subcommand_is_gone():
    # ``run`` takes several experiments; there is no second batch runner.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "fig6b"])


@pytest.mark.parametrize("command", ["run", "explore", "report"])
def test_shared_flags_are_uniform(command):
    parser = build_parser()
    argv = [command, "fig6b"] if command == "run" else [command]
    args = parser.parse_args(argv)
    # --jobs exists everywhere with the same default.
    assert args.jobs == 1
    if command != "report":
        assert args.seed == 0
        assert args.app == "voting"
        assert args.system is None


TINY = ["--duration", "1", "--scale", "400"]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "chaos", "--system", "fabric", "--resilience", *TINY],
        ["run", "chaos", "--system", "orderlesschain", "--max-retries", "-1", *TINY],
    ],
    ids=["baseline-resilience", "negative-max-retries"],
)
def test_chaos_knob_a_run_cannot_use_is_an_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_chaos_sweep_gives_orderlesschain_knobs_to_orderlesschain_alone(tmp_path, capsys):
    import json

    def fingerprints(*flags):
        out = str(tmp_path / "chaos.json")
        assert main(["run", "chaos", *TINY, *flags, "--output", out]) == 0
        return {entry["system"]: entry["fingerprint"] for entry in json.load(open(out))}

    plain = fingerprints()
    tuned = fingerprints("--resilience", "--max-retries", "2", "--snapshot-interval", "5")
    assert sorted(plain) == sorted(SYSTEMS)
    assert tuned.pop("orderlesschain") != plain.pop("orderlesschain")
    assert tuned == plain  # the baselines ran exactly as without the knobs


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


def test_run_several_panels_writes_one_entry_per_id_and_prints_each_verdict(tmp_path, capsys):
    import json

    out_path = str(tmp_path / "x.json")
    argv = ["run", "fig9", "table3", "--duration", "2", "--scale", "200", "--output", out_path]
    assert main(argv) == 0
    payload = json.loads(open(out_path).read())
    assert sorted(payload) == ["fig9-auction", "fig9-voting", "table3"]
    assert all(payload.values())
    out = capsys.readouterr().out
    verdicts = [line for line in out.splitlines() if line.startswith("**Verdict: ")]
    assert len(verdicts) == 3
    # Each panel's checks print under its table, before the next panel.
    for title in ("Figure 9(a)", "Figure 9(b)", "Table 3"):
        assert title in out
    assert out.index("Checks:") < out.index("Table 3")


def test_trace_prints_its_tables_and_writes_both_files(tmp_path, capsys):
    import json

    trace_out, metrics_out = tmp_path / "trace.json", tmp_path / "metrics.json"
    argv = ["trace", "--duration", "3", "--trace-out", str(trace_out)]
    assert main(argv + ["--metrics-out", str(metrics_out)]) == 0
    out = capsys.readouterr().out
    assert "| system | app | rate (tps) | tput (tps) | failed |" in out
    assert "| orderlesschain | voting | 2000.0 |" in out
    assert "| orderlesschain | orderlesschain/P1/Execution |" in out
    assert "== node time-series metrics ==" in out
    assert "| metric | node | mean | peak |" in out
    assert json.loads(trace_out.read_text())["traceEvents"]
    metrics = json.loads(metrics_out.read_text())
    assert "orderlesschain/P1/Execution" in metrics["phase_means_ms"]
    assert metrics["node_series"]


def test_trace_without_sampling_says_how_to_enable_it(tmp_path, capsys):
    argv = ["trace", "--duration", "1", "--sample-interval", "0"]
    assert main(argv + ["--trace-out", str(tmp_path / "trace.json")]) == 0
    out = capsys.readouterr().out
    assert "(no samples recorded; enable sampling with --sample-interval)" in out
