"""Explore cases and replay artifacts: wire forms and validation."""

import json

import pytest

from repro.bench.config import ExperimentConfig
from repro.cli import main
from repro.errors import ConfigError
from repro.explore import Artifact, load_artifact, replay, write_artifact
from repro.faults import RECOVERY_MARGIN, fault_run
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.sim.nondeterminism import ExploreProfile


def sample_case():
    return ExperimentConfig(
        system="fabric",
        app="synthetic",
        seed=17,
        num_orgs=4,
        quorum=2,
        duration=12.0,
        scale=40.0,
        object_pool=8,
        check=True,
        explore=ExploreProfile(tie_seed=4, jitter_seed=5, jitter_factor=0.2),
        fault_schedule=FaultSchedule(
            events=(
                FaultEvent(at=2.0, kind="crash", node="org1"),
                FaultEvent(at=4.0, kind="recover", node="org1"),
            )
        ),
        planted_bug="crdt-merge",
    )


def sample_wire():
    return Artifact(sample_case(), "ab" * 32, ("convergence",), executions=7).to_wire()


def test_case_wire_round_trip():
    artifact = Artifact(sample_case(), "ab" * 32, ("convergence",))
    assert Artifact.from_wire(artifact.to_wire()) == artifact
    # JSON round trip too: the wire form is what lands in artifacts.
    assert Artifact.from_wire(json.loads(json.dumps(artifact.to_wire()))) == artifact
    # The case holds scale plus the fields that differ from the defaults
    # (app="synthetic" is the default, so it is left out).
    assert set(artifact.to_wire()["case"]) == {
        "system", "seed", "num_orgs", "quorum", "duration", "scale",
        "object_pool", "check", "explore", "fault_schedule", "planted_bug",
    }
    assert Artifact(ExperimentConfig(scale=20.0), "00", ()).to_wire()["case"] == {"scale": 20.0}


def test_case_rejects_unknown_wire_fields():
    wire = sample_wire()
    wire["case"]["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        Artifact.from_wire(wire)


def test_case_validates_inputs():
    # ExperimentConfig.__post_init__ is the one validation.
    for field, value in (("system", "tendermint"), ("scale", 0.0), ("quorum", 9)):
        wire = sample_wire()
        wire["case"][field] = value
        with pytest.raises(ConfigError):
            Artifact.from_wire(wire)


def test_case_config_pins_scale_and_extends_past_fault_horizon(monkeypatch):
    # The resolved scale is pinned in the case — a different
    # REPRO_BENCH_SCALE on the replaying machine must not leak in.
    monkeypatch.setenv("REPRO_BENCH_SCALE", "1")
    case = Artifact.from_wire(sample_wire()).case
    assert case.scale == 40.0
    assert case.check is True
    assert case.planted_bug == "crdt-merge"
    # Every execution runs past the fault horizon by the recovery margin;
    # a case without faults runs as it is.
    short = case.with_(duration=6.0)
    run = fault_run(short)
    assert run.duration == short.fault_schedule.horizon + RECOVERY_MARGIN > short.duration
    assert run.with_(duration=short.duration) == short
    assert fault_run(case).duration == case.duration  # already past the margin
    clean = case.with_(fault_schedule=FaultSchedule())
    assert fault_run(clean) is clean


def test_artifact_round_trip(tmp_path):
    artifact = Artifact(
        case=sample_case(),
        fingerprint="ab" * 32,
        failures=("convergence",),
        executions=7,
    )
    path = str(tmp_path / "bug.schedule.json")
    write_artifact(path, artifact)
    assert load_artifact(path) == artifact


def test_load_artifact_rejects_foreign_files(tmp_path):
    path = tmp_path / "notes.schedule.json"
    path.write_text(json.dumps({"kind": "grocery-list", "version": 2}))
    with pytest.raises(ConfigError, match="not a"):
        load_artifact(str(path))
    wire = sample_wire()
    wire["version"] = 1
    path.write_text(json.dumps(wire))
    with pytest.raises(ConfigError, match="version"):
        load_artifact(str(path))


def _without_fingerprint(wire):
    del wire["fingerprint"]


def _string_org_count(wire):
    wire["case"]["num_orgs"] = "4"


def _event_without_kind(wire):
    del wire["case"]["fault_schedule"]["events"][0]["kind"]


def _without_check(wire):
    del wire["case"]["check"]


@pytest.mark.parametrize(
    "damage, message",
    [
        (_without_fingerprint, "fingerprint"),
        (_string_org_count, "malformed"),
        (_event_without_kind, "kind"),
        (_without_check, "check=True"),
    ],
)
def test_malformed_artifacts_are_config_errors(tmp_path, capsys, damage, message):
    wire = sample_wire()
    damage(wire)
    path = tmp_path / "bad.schedule.json"
    path.write_text(json.dumps(wire))
    with pytest.raises(ConfigError, match=message):
        replay(str(path))
    # The CLI reports it as one line and exit status 2, not a traceback.
    assert main(["explore", "--replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
