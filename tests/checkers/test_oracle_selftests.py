"""Oracle self-tests: plant one real violation per checker.

``tests/checkers/test_oracles.py`` covers the oracles' verdict logic;
these tests go one level deeper and injure the *actual* run state the
oracles read — the committed operations, the hash-chain blocks, the
committed transaction wires, the ledger log, the recorder — then
assert the matching oracle reports a diagnosable FAIL. If an oracle
ever regresses into reading a cached or derived copy of that state,
these plants stop firing and the test catches it.

The schedule explorer (``repro.explore``) trusts these oracles as its
bug-finding criterion, so each one's FAIL path must be demonstrably
reachable from genuine state damage.
"""

from repro.bench.config import ExperimentConfig
from repro.checkers import run_checkers
from repro.checkers.report import FAIL
from repro.contracts import VotingContract
from repro.core import OrderlessChainNetwork


def build(seed=1):
    config = ExperimentConfig(num_orgs=4, quorum=2, seed=seed, scale=1)
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


def injured(net, injure):
    """Run a clean election, apply the injury, return the new report."""
    run_votes(net)
    assert run_checkers(net).ok, "run must be green before the injury"
    injure(net)
    return run_checkers(net)


def test_convergence_fails_when_an_extra_op_lands_in_one_database():
    # A phantom operation written into one organization's committed
    # operations (same shape as a real one, fresh clock so its derived
    # op_id is new) must diverge that org's replayed snapshot from
    # everyone else's.
    def injure(net):
        wires = next(iter(net.node("org2").ledger.ops.values()))
        phantom = dict(wires[0])
        phantom["clock"] = {"client_id": "intruder", "counter": 99}
        phantom["value"] = "<planted>"
        wires.append(phantom)

    report = injured(build(), injure)
    convergence = report.result("convergence")
    assert convergence.status == FAIL
    assert any("org2" in violation for violation in convergence.violations)


def test_ledger_integrity_fails_when_history_is_rewritten():
    # Rewrite one field of a chained transaction (its client
    # attribution) without re-chaining: every later block's link
    # breaks. Block objects cache their hash precisely so that such
    # history rewrites cannot hide behind in-place mutation.
    def injure(net):
        ledger = net.node("org1").ledger
        block = ledger.log.block_at(0)
        forged = dict(block.payload)
        forged["proposal"] = {**forged["proposal"], "client_id": "mallory"}
        ledger.log.tamper(0, forged)

    report = injured(build(), injure)
    integrity = report.result("ledger-integrity")
    assert integrity.status == FAIL
    assert any("org1" in violation for violation in integrity.violations)


def test_policy_safety_fails_when_nested_endorsements_are_truncated():
    # Mutate the endorsement list *inside* the committed wire (not the
    # org's dict entry): the oracle must audit the nested content.
    def injure(net):
        org = net.node("org0")
        _, block = next(iter(sorted(org.ledger.valid.items())))
        endorsements = block.payload["endorsements"]
        endorsements[:] = endorsements[:1]  # below q=2

    report = injured(build(), injure)
    safety = report.result("policy-safety")
    assert safety.status == FAIL
    assert any("valid endorsements" in violation for violation in safety.violations)


def test_no_duplicate_commit_fails_when_a_valid_block_is_replayed():
    # Append a committed payload to the hash chain again, bypassing
    # Ledger.commit's dedup guard (which raises on a double commit) —
    # exactly what a buggy redelivery path would do. The chain itself
    # stays intact, so only the duplicate oracle may go red.
    def injure(net):
        ledger = net.node("org0").ledger
        block = next(iter(ledger.valid.values()))
        ledger.log.append(block.payload, valid=True)

    report = injured(build(), injure)
    duplicate = report.result("no-duplicate-commit")
    assert duplicate.status == FAIL
    assert any("2 times" in violation for violation in duplicate.violations)
    assert report.result("ledger-integrity").status != FAIL


def test_availability_fails_when_no_submission_commits():
    # Rewrite the recorder's ground truth so every transaction failed:
    # the commit ratio drops to zero, under any threshold.
    def injure(net):
        for record in net.recorder.records.values():
            record.committed_at = None
            record.failed_at = record.submitted_at + 1.0
            record.failure_reason = "planted"

    report = injured(build(), injure)
    availability = report.result("availability")
    assert availability.status == FAIL
    assert "0/" in availability.details or "0.0%" in availability.details
