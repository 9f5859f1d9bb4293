"""One run path: every system is built, faulted, driven and measured alike.

``run_network`` builds any of the five systems, starts it, installs the
fault schedule, starts one workload driver per channel (a
single-application run is one implicit default channel) and runs it.
Two runs are pinned by their run fingerprint plus the sha256 of their
exported record (floats as ``float.hex``): two channels under the chaos
smoke schedule, and OrderlessChain under Byzantine clients and a
Byzantine window with avoidance and retries.
The pins were dumped from the two-runner code this path replaced.

Regenerate them (only when a change deliberately alters a run) by
printing :func:`pins`::

    PYTHONPATH=src:. python -c "from tests.bench.test_run_path import pins; print(pins())"
"""

import hashlib
import json

import pytest

from repro.bench.config import ByzantineWindow, ChannelSpec, ExperimentConfig
from repro.bench.export import result_to_record
from repro.bench.runner import run_experiment
from repro.faults import default_node_ids, smoke_schedule

PINNED = {
    "two-channels-smoke": ExperimentConfig(
        app="voting",
        num_orgs=4,
        quorum=2,
        arrival_rate=1500.0,
        duration=6.0,
        scale=50.0,
        seed=3,
        check=True,
        fault_schedule=smoke_schedule(default_node_ids("orderlesschain", 4)),
        channels=(
            ChannelSpec("vote", app="voting", rate_share=1.0),
            ChannelSpec("bid", app="auction", rate_share=2.0),
        ),
    ),
    "byzantine-avoid-retry": ExperimentConfig(
        app="voting",
        num_orgs=8,
        quorum=3,
        arrival_rate=1500.0,
        duration=6.0,
        scale=50.0,
        seed=5,
        check=True,
        byzantine_client_fraction=0.25,
        byzantine_client_faults=("proposal_only", "tamper"),
        byzantine_org_windows=(ByzantineWindow(2, 1.0, 4.0),),
        avoid_byzantine=True,
        max_retries=1,
    ),
}


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): _hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    return value


def pinned_run(name):
    """(fingerprint, record sha256, result) of one pinned config."""
    result = run_experiment(PINNED[name])
    record = json.dumps(_hexed(result_to_record(result)), sort_keys=True)
    return result.fingerprint, hashlib.sha256(record.encode()).hexdigest(), result


def pins():
    """The current pins, in the shape of :data:`PINS`."""
    return {name: pinned_run(name)[:2] for name in PINNED}


PINS = {
    "two-channels-smoke": (
        "c0e2b060df2db435eb565416cb4794e60d90cf4df09484f48011bf3ab8c2e6ef",
        "8085fafcc295192ac1038fb059674a849574d56cd8922d306c9a2a63df8a1a04",
    ),
    "byzantine-avoid-retry": (
        "945b72cde01e72ba2230469c712075e04e5dbdcfe21d9f6fd8514f65655576b8",
        "af39edba99defe0f6c293ad513d004b61391d7949860ff4b101db2728e029f3f",
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_run(name):
    fingerprint, digest, result = pinned_run(name)
    assert result.check_report.ok
    assert (fingerprint, digest) == PINS[name]
