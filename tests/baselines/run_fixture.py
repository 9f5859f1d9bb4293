"""Serialization shared by the baseline-runs fixture and its test.

``tests/baselines/data/baseline_runs.json`` pins the simulated work of
every baseline: each of the four systems on each application and the
chaos smoke at two seeds. A run is reduced to structural counts (events
processed, messages and bytes by type, drops by reason, outcomes by
failure reason, samples per phase, per-node state hashes) plus one
sha256 over the per-transaction timestamps rendered with ``float.hex``
— so any change to the event order, a message size or an RNG draw shows
up, while the file stays reviewable.

Regenerate (only when a change deliberately alters baseline
behaviour) with::

    PYTHONPATH=src python -m tests.baselines.run_fixture
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

from repro.bench.config import ExperimentConfig
from repro.bench.runner import run_network
from repro.checkers import state_fingerprints

from ..chaos.harness import chaos_run

FIXTURE_PATH = Path(__file__).parent / "data" / "baseline_runs.json"
BASELINES = ("fabric", "fabriccrdt", "bidl", "synchotstuff")
APPS = ("synthetic", "voting", "auction")


def _hex(value):
    return None if value is None else float(value).hex()


def summarize(net) -> dict:
    """The structural outcome of one finished baseline run."""
    records = net.recorder.records
    rows = [
        (
            record.transaction_id,
            record.kind,
            record.submitted_at.hex(),
            _hex(record.committed_at if record.committed_at is not None else record.failed_at),
            record.failure_reason,
        )
        for _, record in sorted(records.items())
    ]
    network = net.network
    return {
        "events": net.sim.processed_events,
        "sent_by_type": dict(sorted(network.sent_by_type.items())),
        "bytes_by_type": dict(sorted(network.bytes_by_type.items())),
        "drops_by_reason": dict(sorted(network.drops_by_reason.items())),
        "committed": sum(1 for r in records.values() if r.committed_at is not None),
        "failed": sum(1 for r in records.values() if r.failed_at is not None),
        "failure_reasons": dict(
            sorted(Counter(r.failure_reason for r in records.values() if r.failure_reason).items())
        ),
        "phase_samples": {
            name: len(samples) for name, samples in sorted(net.recorder.phase_durations.items())
        },
        "state_fingerprints": state_fingerprints(net),
        "transactions_sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    }


def _app_run(system: str, app: str, **fields) -> dict:
    config = ExperimentConfig(
        system=system, app=app, duration=4, scale=60, seed=7, num_orgs=8, quorum=4, **fields
    )
    return summarize(run_network(config))


def collect() -> dict:
    """Every pinned run, keyed by a readable label."""
    runs = {}
    for system in BASELINES:
        for app in APPS:
            runs[f"{system}/{app}"] = _app_run(system, app)
    for system in BASELINES:
        for seed in (1, 2):
            net, _ = chaos_run(system, seed=seed)
            runs[f"{system}/chaos-smoke/seed{seed}"] = summarize(net)
    return runs


def render(runs: dict) -> str:
    return json.dumps(runs, indent=1) + "\n"


if __name__ == "__main__":
    FIXTURE_PATH.parent.mkdir(exist_ok=True)
    FIXTURE_PATH.write_text(render(collect()))
