"""Pins: digests that hold a run still, and one command to regenerate them.

A pin is a run fingerprint (protocol state plus record counts) or the
sha256 of a run's exported record or trace, floats as ``float.hex``.
Each module in :data:`PINNED` defines ``pins()``, its current values in
the shape of its constants. Print them all, and the diff of
``tests/baselines/data/baseline_runs.json``, with the command below; only
when a change deliberately alters a run, copy the pins and add ``--write``
to rewrite the fixture::

    PYTHONPATH=src:. python -m tests.pins
"""

import difflib
import hashlib
import importlib
import json
import sys

from repro.obs.chrome import to_chrome_trace

PINNED = (
    "tests.chaos.test_determinism",
    "tests.bench.test_run_path",
    "tests.core.test_client_attempt",
    "tests.obs.test_one_record",
    "tests.explore.test_replay_determinism",
    "tests.ledger.test_wire_format",
)


def sha256_json(value, **options) -> str:
    return hashlib.sha256(json.dumps(value, **options).encode()).hexdigest()


def hexed(value):
    """``value`` with every float as ``float.hex`` and every dict key a str."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def trace_rows(trace):
    """Every span and instant of ``trace``, times as ``float.hex``."""

    def attrs(record):
        return json.dumps(record.attrs, sort_keys=True, default=repr)

    spans = [(s.name, s.node, s.txn_id, s.start.hex(), s.end.hex(), attrs(s)) for s in trace.spans]
    instants = [(i.name, i.node, i.txn_id, i.at.hex(), attrs(i)) for i in trace.instants]
    return spans, instants


def trace_sha256(trace) -> str:
    """sha256 of the exported trace as ``write_chrome_trace`` writes it."""
    text = json.dumps(to_chrome_trace(trace), indent=1, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def baseline_events_sha256(trace) -> str:
    """sha256 of the sorted (name, node, txn_id, ts, dur, args) events,
    leaving out the outcome events baseline clients emit."""
    events = to_chrome_trace(trace)["traceEvents"]
    nodes = {e["pid"]: e["args"]["name"] for e in events if e["name"] == "process_name"}
    rows = []
    for event in events:
        if event["ph"] == "M" or event["name"].startswith("txn/") or event["name"] == "client/txn":
            continue
        args = dict(event["args"])
        txn_id = args.pop("txn_id", "")
        row = (event["name"], nodes[event["pid"]], txn_id, event["ts"], event.get("dur", -1.0))
        rows.append(row + (json.dumps(args, sort_keys=True),))
    return sha256_json(sorted(rows))


if __name__ == "__main__":
    from tests.baselines.run_fixture import FIXTURE_PATH, collect, render

    for name in PINNED:
        print(f"{name}: {importlib.import_module(name).pins()}")
    lines = [text.splitlines(True) for text in (FIXTURE_PATH.read_text(), render(collect()))]
    sys.stdout.writelines(difflib.unified_diff(*lines, str(FIXTURE_PATH)))
    if sys.argv[1:] == ["--write"]:
        FIXTURE_PATH.write_text("".join(lines[1]))
