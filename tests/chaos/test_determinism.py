"""Determinism under faults: same seed, same schedule → same run.

Two layers of protection:

* **same-session determinism** — running the identical chaos scenario
  twice in one process must produce byte-identical fingerprints (the
  fault injector is part of the deterministic event order);
* **golden seeds** — the seed-1 fingerprint of the standard smoke
  scenario is pinned per system. The fingerprint holds protocol state
  and record counts, not wire bytes or commit order, so these change
  *only* when a commit deliberately changes what a run commits, what
  it fails or retries, or the fingerprint material itself; re-pin them
  consciously with ``python -m tests.pins``, never to silence a red
  test (see docs/FAULTS.md).
"""

import pytest

from repro.checkers import run_fingerprint, state_fingerprints
from repro.core.transaction import Transaction
from repro.ledger.ledger import Ledger

from .harness import SYSTEMS, chaos_run

# Pinned seed-1 fingerprints of the standard chaos smoke scenario
# (4 orgs, 4 clients, smoke_schedule, run to t=60).
GOLDEN_SEED1 = {
    "orderlesschain": "dc7089a5e5c0f140ed118830b6998be7c89ec18e9ea71bb2d0bb3f51908b2191",
    "fabric": "d00caff3d34546bb0781892d36f1694e4e6c28634399eb8a35192079cb93deee",
    "fabriccrdt": "16c84467cbd14368719f89749064960bb6456bf3ef573e86c59f11d349f6bed8",
    "bidl": "0287a210f04c4be89d94c48da8f550e40c4d843c367933f1cad90b059b13c410",
    "synchotstuff": "68713624e5f60f2828cb27ba4e99f776a52a521df86d31bc4a4e9624e8eacb76",
}


def pins():
    """The current pins, in the shape of :data:`GOLDEN_SEED1`."""
    return {system: run_fingerprint(chaos_run(system, seed=1)[0]) for system in SYSTEMS}


@pytest.mark.parametrize("system", SYSTEMS)
def test_same_seed_same_schedule_same_fingerprint(system):
    first, _ = chaos_run(system, seed=2)
    second, _ = chaos_run(system, seed=2)
    assert run_fingerprint(first) == run_fingerprint(second)
    assert state_fingerprints(first) == state_fingerprints(second)


@pytest.mark.parametrize("system", SYSTEMS)
def test_golden_seed_fingerprint(system):
    net, _ = chaos_run(system, seed=1)
    assert run_fingerprint(net) == GOLDEN_SEED1[system], (
        f"{system}: the chaos run's outcome changed. If this commit "
        "deliberately changes protocol or fingerprint behavior, re-pin "
        "GOLDEN_SEED1; otherwise this is a determinism regression."
    )


def test_different_seeds_differ():
    # Not a guarantee in principle, but with distinct RNG streams these
    # scenarios diverge in practice; catching fingerprints that ignore
    # the actual run (e.g. hashing a constant) is the point.
    a, _ = chaos_run("orderlesschain", seed=1)
    b, _ = chaos_run("orderlesschain", seed=2)
    assert run_fingerprint(a) != run_fingerprint(b)


def recommitted_in_reverse(ledger):
    """A fresh ledger holding ``ledger``'s blocks, committed last to first."""
    reordered = Ledger()
    for block in reversed(list(ledger.log)):
        transaction = Transaction.from_wire(block.payload)
        reordered.commit(
            transaction.transaction_id, transaction.operations(), block.payload, block.valid
        )
    return reordered


def test_fingerprint_holds_state_not_commit_order():
    net, _ = chaos_run("orderlesschain", seed=1)
    pinned = run_fingerprint(net)
    org = net.node("org0")
    head = org.ledger.log.head_hash
    org.ledger = recommitted_in_reverse(org.ledger)
    assert org.ledger.log.head_hash != head
    assert run_fingerprint(net) == pinned


def test_fingerprint_moves_with_one_more_committed_transaction():
    net, _ = chaos_run("orderlesschain", seed=1)
    pinned = run_fingerprint(net)
    # No operations: only the committed-valid id set grows.
    net.node("org0").ledger.commit("intruder:1", (), {"proposal": "intruder:1"}, True)
    assert run_fingerprint(net) != pinned


def test_fingerprint_moves_with_one_object_value():
    net, _ = chaos_run("orderlesschain", seed=1)
    pinned = run_fingerprint(net)
    # One more increment of a committed counter under an unseen clock:
    # the committed set stays, the object's value moves.
    wires = next(iter(net.node("org0").ledger.ops.values()))
    wires.append({**wires[0], "clock": {"client_id": "intruder", "counter": 1}})
    assert run_fingerprint(net) != pinned
