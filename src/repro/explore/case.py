"""Replay artifacts for explore cases.

An explore case is an :class:`~repro.bench.config.ExperimentConfig`.
It pins *every* choice point of one execution: the base protocol seed,
the controlled-nondeterminism profile (``explore``: tie permutation +
delivery jitter, :mod:`repro.sim.nondeterminism`), the fault schedule,
the workload operating point, and — crucially — the resolved ``scale``
factor, so a case replays identically on a machine with a different
``REPRO_BENCH_SCALE``. Its ``duration`` is the run before the recovery
margin: every execution runs :func:`repro.faults.fault_run` of it.

A counterexample found by the explorer is persisted as a
``*.schedule.json`` artifact carrying the (minimized) case plus the
expected run fingerprint and failing-oracle set; ``repro explore
--replay`` re-executes the case and verifies both match byte-for-byte.
The artifact's ``case`` holds ``scale`` plus every field that differs
from its ``ExperimentConfig`` default, and loading it builds the
config, so ``ExperimentConfig.__post_init__`` validates it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from typing import Any, Dict, Tuple

from repro.bench.config import ExperimentConfig
from repro.errors import ConfigError
from repro.faults.schedule import FaultSchedule
from repro.sim.nondeterminism import ExploreProfile

ARTIFACT_KIND = "repro.explore.counterexample"
ARTIFACT_VERSION = 2


def _case_wire(case: ExperimentConfig) -> Dict[str, Any]:
    # The default scale reads the environment, so it is always pinned.
    wire: Dict[str, Any] = {"scale": case.scale}
    default = ExperimentConfig(scale=case.scale)
    for spec in fields(case):
        value = getattr(case, spec.name)
        if value != getattr(default, spec.name):
            wire[spec.name] = value.to_wire() if hasattr(value, "to_wire") else value
    return wire


def _case_from_wire(wire: Dict[str, Any]) -> ExperimentConfig:
    values = dict(wire)
    if "fault_schedule" in values:
        values["fault_schedule"] = FaultSchedule.from_wire(wire["fault_schedule"])
    if "explore" in values:
        values["explore"] = ExploreProfile.from_wire(wire["explore"])
    return ExperimentConfig(**values)


@dataclass(frozen=True)
class Artifact:
    """A persisted counterexample: the case plus its expected outcome."""

    case: ExperimentConfig
    fingerprint: str
    failures: Tuple[str, ...]
    executions: int = 0  # explorer budget spent before this was found

    def to_wire(self) -> Dict[str, Any]:
        return {
            "version": ARTIFACT_VERSION,
            "kind": ARTIFACT_KIND,
            "case": _case_wire(self.case),
            "fingerprint": self.fingerprint,
            "failures": list(self.failures),
            "executions": self.executions,
        }

    @classmethod
    def from_wire(cls, wire: Any) -> "Artifact":
        """Parse an artifact; anything malformed raises :class:`ConfigError`."""
        if not isinstance(wire, dict) or wire.get("kind") != ARTIFACT_KIND:
            raise ConfigError(f"not a {ARTIFACT_KIND} artifact")
        if wire.get("version") != ARTIFACT_VERSION:
            raise ConfigError(f"unsupported artifact version {wire.get('version')!r}")
        try:
            return cls(
                case=_case_from_wire(wire["case"]),
                fingerprint=wire["fingerprint"],
                failures=tuple(wire.get("failures", ())),
                executions=int(wire.get("executions", 0)),
            )
        except KeyError as exc:
            raise ConfigError(f"artifact has no {exc.args[0]!r} field") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed artifact: {exc}") from None


def write_artifact(path: str, artifact: Artifact) -> None:
    """Persist a counterexample as a ``*.schedule.json`` file."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact.to_wire(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_artifact(path: str) -> Artifact:
    """Load and validate a ``*.schedule.json`` replay artifact."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return Artifact.from_wire(json.load(handle))
        except (ConfigError, ValueError) as exc:  # ValueError: not JSON at all
            raise ConfigError(f"{path}: {exc}") from None


__all__ = [
    "ARTIFACT_KIND",
    "ARTIFACT_VERSION",
    "Artifact",
    "load_artifact",
    "write_artifact",
]
