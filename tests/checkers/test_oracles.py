"""Tests for the invariant oracles, including the negative paths.

A checker suite is only trustworthy if it *fails* when the invariant
is actually broken, so half of these tests injure a run on purpose —
tampered ledgers, stripped endorsements, more-than-f Byzantine
endorsement quorums — and assert the matching oracle goes red with a
diagnosable report.
"""

from dataclasses import replace

import pytest

from repro.bench.config import ExperimentConfig
from repro.checkers import run_checkers, state_fingerprints
from repro.checkers.oracles import CheckContext, ConvergenceChecker
from repro.checkers.report import FAIL, PASS, SKIP
from repro.contracts import VotingContract
from repro.core import OrderlessChainNetwork
from repro.core.byzantine import ByzantineOrgConfig
from repro.crdt import OpClock, Operation
from repro.faults import FaultEvent, FaultSchedule, install_schedule


def build(seed=1, num_orgs=4, quorum=2, **kwargs):
    config = ExperimentConfig(num_orgs=num_orgs, quorum=quorum, seed=seed, scale=1, **kwargs)
    net = OrderlessChainNetwork(config)
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    return net


def run_votes(net, voters=3, until=30.0):
    clients = [net.add_client(f"voter{i}") for i in range(voters)]
    for index, client in enumerate(clients):
        net.sim.process(
            client.submit_modify(
                "voting", "vote", {"party": f"party{index % 2}", "election": "e0"}
            )
        )
    net.run(until=until)
    return clients


def test_honest_run_passes_every_oracle():
    net = build()
    run_votes(net)
    report = run_checkers(net)
    assert report.ok
    assert {r.name: r.status for r in report.results} == {
        "convergence": PASS,
        "ledger-integrity": PASS,
        "policy-safety": PASS,
        "liveness": PASS,
        "no-duplicate-commit": PASS,
        "availability": PASS,
    }
    assert "all passed" in report.format()


def test_mid_run_check_skips_time_sensitive_oracles():
    net = build()
    run_votes(net, until=0.5)  # protocol still in flight
    report = run_checkers(net, quiescent=False)
    assert report.ok
    assert report.result("convergence").status == SKIP
    assert report.result("liveness").status == SKIP
    # Structural oracles still run mid-simulation.
    assert report.result("ledger-integrity").status == PASS


def test_convergence_skipped_while_schedule_leaves_partition_in_place():
    net = build()
    schedule = FaultSchedule(
        events=(
            FaultEvent(
                at=1.0, kind="partition", groups=(("org0",), ("org1", "org2", "org3"))
            ),
        )
    )
    install_schedule(net, schedule)
    run_votes(net)
    report = run_checkers(net, schedule=schedule)
    assert report.result("convergence").status == SKIP
    assert "partition" in report.result("convergence").details


def test_convergence_fails_on_diverged_state():
    net = build()
    run_votes(net)
    assert run_checkers(net).ok  # converged before the injury
    # Diverge one organization's reported state.
    org = net.node("org3")
    snapshot = org.state_snapshot()
    org.state_snapshot = lambda: {**snapshot, "intruder": 1}  # type: ignore[assignment]
    report = run_checkers(net)
    convergence = report.result("convergence")
    assert convergence.status == FAIL
    assert convergence.violations  # per-node digests named in the report


def test_convergence_holds_for_fractional_increments_in_any_commit_order():
    # Bids of 0.1, 0.2 and 0.3 add up to 0.6000000000000001 left to right
    # and to 0.6 right to left; two organizations that commit them in
    # those two orders still hold the same state.
    net = build(num_orgs=2, quorum=1)
    bids = [
        (f"bidder{index}:1", Operation("bids", (), amount, "gcounter", OpClock(f"bidder{index}", 1)))
        for index, amount in enumerate((0.1, 0.2, 0.3))
    ]
    for org_id, order in (("org0", bids), ("org1", bids[::-1])):
        for txn_id, operation in order:
            net.node(org_id).ledger.commit(txn_id, [operation], {"proposal": txn_id}, True)
    assert net.node("org0").read_state("bids") == net.node("org1").read_state("bids") == 0.6
    assert len(set(state_fingerprints(net).values())) == 1
    assert ConvergenceChecker().check(net, CheckContext()).status == PASS


def test_ledger_integrity_fails_on_tampered_chain():
    net = build()
    run_votes(net)
    net.node("org1").ledger.log.tamper(0, {"forged": True})
    report = run_checkers(net)
    integrity = report.result("ledger-integrity")
    assert integrity.status == FAIL
    assert any("org1" in violation for violation in integrity.violations)


def test_policy_safety_fails_when_endorsements_stripped_below_quorum():
    net = build()
    run_votes(net)
    org = net.node("org0")
    txn_id, block = next(iter(sorted(org.ledger.valid.items())))
    tampered = dict(block.payload)
    tampered["endorsements"] = block.payload["endorsements"][:1]  # below q=2
    org.ledger.valid[txn_id] = replace(block, payload=tampered)
    report = run_checkers(net)
    safety = report.result("policy-safety")
    assert safety.status == FAIL
    assert any(txn_id in violation for violation in safety.violations)


def test_policy_safety_fails_when_signature_is_forged():
    net = build()
    run_votes(net)
    org = net.node("org0")
    txn_id, block = next(iter(sorted(org.ledger.valid.items())))
    tampered = dict(block.payload)
    endorsements = [dict(e) for e in block.payload["endorsements"]]
    for endorsement in endorsements:
        endorsement["signature"] = "forged"
    tampered["endorsements"] = endorsements
    org.ledger.valid[txn_id] = replace(block, payload=tampered)
    report = run_checkers(net)
    assert report.result("policy-safety").status == FAIL


def test_policy_safety_flags_commit_endorsed_only_by_byzantine_quorum():
    """The >f negative test: with q = 2 the system tolerates f = 1
    Byzantine organization; here *two* are Byzantine and (via skewed
    client weights) form entire endorsement quorums by themselves.
    Honest organizations commit those transactions — numerically the
    policy holds — and the oracle must still flag them, because every
    valid endorser is Byzantine."""
    net = build(seed=3, org_weights=(1.0, 1.0, 1e-9, 1e-9))
    net.schedule_byzantine_window(
        ["org0", "org1"],
        0.0,
        None,
        # Byzantine in the trust model, benign in behavior: the
        # dangerous case where a colluding quorum *looks* clean.
        config=ByzantineOrgConfig(
            drop_probability=0.0,
            wrong_endorsement_probability=0.0,
            suppress_gossip_probability=0.0,
        ),
    )
    run_votes(net)
    report = run_checkers(net)
    safety = report.result("policy-safety")
    assert safety.status == FAIL
    assert any("Byzantine" in violation for violation in safety.violations)
    assert "FAIL" in report.format()


def test_liveness_fails_for_transaction_stuck_past_grace():
    net = build()
    run_votes(net, until=60.0)
    # A transaction submitted at t=0 that never resolved: stuck far
    # beyond the client timeout budget.
    net.recorder.submitted("ghost:1", "ghost", "modify", 0.0)
    report = run_checkers(net)
    liveness = report.result("liveness")
    assert liveness.status == FAIL
    assert any("ghost:1" in violation for violation in liveness.violations)


def test_liveness_grace_is_set_by_the_slowest_client():
    # The voters keep the default 9 s budget; a client added after them
    # may retry five times, so its 39 s budget sets the grace and a
    # transaction of its own pending for 20 s is not (yet) stuck.
    net = build()
    run_votes(net)
    net.add_client("patient", config=net.config.with_(max_retries=5))
    net.recorder.submitted("patient:1", "patient", "modify", net.sim.now - 20.0)
    assert run_checkers(net).result("liveness").status == PASS


def test_report_wire_form_round_trips_status():
    net = build()
    run_votes(net)
    report = run_checkers(net)
    wire = report.to_wire()
    assert wire["ok"] is True
    assert {entry["name"] for entry in wire["results"]} == {
        "convergence",
        "ledger-integrity",
        "policy-safety",
        "liveness",
        "no-duplicate-commit",
        "availability",
    }
    with pytest.raises(KeyError):
        report.result("nonexistent")
