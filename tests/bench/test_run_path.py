"""One run path: every system is built, faulted, driven and measured alike.

``run_network`` builds any of the five systems, starts it, installs the
fault schedule, starts one workload driver per channel (a
single-application run is one implicit default channel) and runs it.
Two runs are pinned by their run fingerprint plus the sha256 of their
exported record (floats as ``float.hex``): two channels under the chaos
smoke schedule, and OrderlessChain under Byzantine clients and a
Byzantine window with avoidance and retries.
Regenerate the pins with ``python -m tests.pins`` (:mod:`tests.pins`).
"""

import pytest

from repro.bench.config import ByzantineWindow, ChannelSpec, ExperimentConfig
from repro.bench.runner import run_experiment
from repro.faults import default_node_ids, smoke_schedule
from tests.pins import hexed, sha256_json

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


def pinned_run(config):
    result = run_experiment(config.with_(check=True))
    return result.fingerprint, sha256_json(hexed(result.to_record()), sort_keys=True), result


def pins():
    """The current pins, in the shape of :data:`PINS`."""
    return {name: pinned_run(config)[:2] for name, config in PINNED.items()}


PINS = {
    "two-channels-smoke": (
        "71769863a60198139c795a081e63e4e80e31250fd1df055af5b4c31971454348",
        "9af8246432544f5296c9134dd79ddd9745eaefd13822ba49aaa24983235f4188",
    ),
    "byzantine-avoid-retry": (
        "004ad525f75643a5a9662c8e8a36779bc50d2e317aa369af9f15e378acc43cf8",
        "af39edba99defe0f6c293ad513d004b61391d7949860ff4b101db2728e029f3f",
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_run(name):
    fingerprint, digest, result = pinned_run(PINNED[name])
    assert result.check_report.ok
    assert (fingerprint, digest) == PINS[name]
