"""One client attempt: endorse, commit and read run one solicit-and-wait step.

The fixed-timeout client (the paper's) and the adaptive-resilience
client share the attempt step; only target selection, the deadline and
the settle bookkeeping differ. These tests hold the step's observable
behaviour — which phases a client retries, how receipts accumulate
across commit attempts, that an attempt releases only its own pending
entry — and pin four small runs (run fingerprint plus sha256 of every
trace span and instant) so that the step keeps the fixed and resilient
clients' draws and schedules exactly.

Regenerate the pins (only when a change deliberately alters a run) by
printing :func:`pins`::

    PYTHONPATH=src:. python -c "from tests.core.test_client_attempt import pins; print(pins())"
"""

import hashlib
import json

import pytest

from repro.bench.config import ByzantineWindow, ExperimentConfig
from repro.bench.runner import run_experiment
from repro.contracts import VotingContract
from repro.core import OrderlessChainNetwork
from repro.core.organization import MSG_COMMIT
from repro.faults import default_node_ids, smoke_schedule
from repro.obs import Observability

VOTE = {"party": "party0", "election": "e"}


def voting_net():
    net = OrderlessChainNetwork(ExperimentConfig(num_orgs=6, quorum=2, seed=4, scale=1))
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    return net


def tap_commits(net, delivered):
    """Record every commit message sent; deliver only the ``delivered``-th
    ones (1-based, counted across the run)."""
    commits = []
    send = net.network.send

    def tapped(message):
        if message.msg_type == MSG_COMMIT:
            commits.append(message.recipient)
            if len(commits) not in delivered:
                return
        send(message)

    net.network.send = tapped
    return commits


def run_modify(net, client):
    net.sim.process(client.submit_modify("voting", "vote", VOTE))
    net.run(until=30.0)
    (record,) = net.recorder.records.values()
    return record


def test_fixed_client_never_retries_its_commit():
    net = voting_net()
    client = net.add_client("c0", config=net.config.with_(max_retries=2))
    commits = tap_commits(net, delivered=())
    record = run_modify(net, client)
    assert len(commits) == 2  # one attempt at q organizations
    assert record.retries == 0
    assert record.failure_reason == "commit timeout"


def test_resilient_commit_retry_retargets_and_keeps_earlier_receipts():
    net = voting_net()
    client = net.add_client("c0", config=net.config.with_(max_retries=2, resilience=True))
    # Each attempt solicits q + HEDGE = 3 of the 6 organizations. First
    # attempt: only its first target answers. Second attempt: only its
    # first target answers, so the quorum of two needs the receipt the
    # first attempt already collected.
    commits = tap_commits(net, delivered=(1, 4))
    record = run_modify(net, client)
    assert record.succeeded
    assert record.retries == 1
    assert len(commits) == 6
    assert not set(commits[:3]) & set(commits[3:])  # fresh organizations


def test_byzantine_client_reusing_a_proposal_id_finishes_the_run():
    # no_increment peeks the clock, so two in-flight submits of one
    # client can share a proposal id and so a pending-response entry.
    result = run_experiment(
        ExperimentConfig(
            scale=20.0,
            duration=4.0,
            seed=5,
            byzantine_client_fraction=0.5,
            byzantine_client_faults=("no_increment", "split_clock"),
            check=True,
        )
    )
    assert result.committed > 0
    assert result.check_report.ok, result.check_report.format()


PIN_CONFIGS = {
    "fixed-retries-avoid-window": ExperimentConfig(
        scale=20.0,
        duration=3.0,
        drain=8.0,
        seed=3,
        num_orgs=8,
        quorum=3,
        max_retries=1,
        avoid_byzantine=True,
        byzantine_org_windows=(ByzantineWindow(count=2, start=0.5, end=2.5),),
    ),
    "fixed-byzantine-clients": ExperimentConfig(
        scale=20.0,
        duration=3.0,
        drain=8.0,
        seed=4,
        num_orgs=8,
        quorum=3,
        byzantine_client_fraction=0.5,
        byzantine_client_faults=("proposal_only", "tamper", "partial_commit", "no_increment"),
    ),
    "fixed-org-weights-retries": ExperimentConfig(
        scale=20.0,
        duration=3.0,
        drain=4.0,
        seed=6,
        num_orgs=8,
        quorum=3,
        max_retries=2,
        org_weights=(4.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0),
    ),
    "resilience-retries-snapshots-chaos": ExperimentConfig(
        scale=20.0,
        duration=4.0,
        drain=8.0,
        seed=8,
        app="voting",
        num_orgs=4,
        quorum=2,
        max_retries=2,
        resilience=True,
        snapshot_interval=1.0,
        fault_schedule=smoke_schedule(default_node_ids("orderlesschain", 4)),
    ),
}


def _rows(trace):
    def attrs(record):
        return json.dumps(record.attrs, sort_keys=True, default=repr)

    spans = [
        (s.name, s.node, s.txn_id, s.start.hex(), s.end.hex(), attrs(s)) for s in trace.spans
    ]
    instants = [(i.name, i.node, i.txn_id, i.at.hex(), attrs(i)) for i in trace.instants]
    return spans, instants


def pinned_run(name):
    """(fingerprint, trace sha256, result) of one pinned config."""
    obs = Observability(trace=True)
    result = run_experiment(PIN_CONFIGS[name].with_(check=True), obs=obs)
    digest = hashlib.sha256(json.dumps(_rows(obs.trace)).encode()).hexdigest()
    return result.fingerprint, digest, result


def pins():
    """The current pins, in the shape of :data:`PINS`."""
    return {name: pinned_run(name)[:2] for name in PIN_CONFIGS}


# Dumped before the attempt step replaced the per-phase code paths.
PINS = {
    "fixed-retries-avoid-window": (
        "cb975db8a4ba4b5325f9be244b3273968096bef05011e7a923a695c3fc55ada3",
        "0b22f5b80fd47366ebeed70b8fada16263dffb4b76ed1df5762c208b8a14c869",
    ),
    "fixed-byzantine-clients": (
        "7f74a790f0c7ef91ba29a38ff1472080c5ac0ac330e8a3a271508d5c61ebdeca",
        "004193075f8c58b7260a05b3c9edd02ca40e6b6306eff2113e8050e8827940e1",
    ),
    "fixed-org-weights-retries": (
        "039298d34f5e7fa9ebb386074f86a438e5c7852ae6a3903161efc2f6ba66fc86",
        "e704b3d03f26c6d577e048ecb1f921b5cee51f431b8e5f6d006f448b5e1f0cf9",
    ),
    "resilience-retries-snapshots-chaos": (
        "f801a491d3ae3b9389f682019a399434945f7d5697783d7f93e65720fa35d064",
        "9032a7c6838697438d750232d398ff670ca95959c082e55495f60476289e14b5",
    ),
}


@pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
def test_pinned_runs_are_unchanged(name):
    fingerprint, digest, result = pinned_run(name)
    assert result.check_report.ok, result.check_report
    assert (fingerprint, digest) == PINS[name]
