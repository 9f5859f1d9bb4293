"""The wire format: the one test that pins ledger bytes.

Run fingerprints hold protocol state, not bytes (docs/FAULTS.md), so a
change to how a block or a transaction renders moves only the pins
here: the seed-1 chaos-smoke OrderlessChain ledger heads, and the block
hashes of a hand-built two-block chain whose transaction fills every
wire field and whose blocks take both ``valid`` values. Re-pin with
``python -m tests.pins`` only when a change deliberately alters the
wire format.
"""

from repro.core.transaction import Endorsement, Proposal, Transaction
from repro.crdt.clock import OpClock
from repro.crdt.operation import TYPE_GCOUNTER, TYPE_MVREGISTER, Operation
from repro.crypto.hashing import GENESIS_HASH
from repro.ledger.hashchain import HashChainLog
from tests.chaos.harness import chaos_run

SMOKE_HEAD = "e2d4e8f647eafa154205629136f5f2eed6ec9d8cf5d0c5095bad077403575abc"
CHAIN = (
    "b039b1b9851dadaafea6280c09eb2b4d6ea3e84b2ed9d98dcc9e3daee4809e3e",
    "753d9643c5d4e1f90d65cdd7a4d25ee3f5450118503d18b65268726cdf24e86c",
)


def smoke_heads():
    """node id -> (head hash, block count) after the seed-1 chaos smoke."""
    net, _ = chaos_run("orderlesschain", seed=1)
    ledgers = net.ledgers()
    return {node_id: (ledger.log.head_hash, len(ledger.log)) for node_id, ledger in ledgers.items()}


def hand_built_chain():
    """A valid and an invalid block of one transaction with two operations
    (a float G-Counter increment under a path, a root MV-Register write)
    and two endorsements."""
    clock = OpClock("c0", 7)
    write_set = [
        Operation("auction/a0", ("c0",), 2.5, TYPE_GCOUNTER, clock).to_wire(),
        Operation("doc/d0", (), {"title": "é"}, TYPE_MVREGISTER, clock, op_index=1).to_wire(),
    ]
    proposal = Proposal("c0", "auction", "bid", {"auction": "a0", "amount": 2.5}, clock)
    endorsements = tuple(
        Endorsement(org, proposal.proposal_id, write_set, f"sig-{org}") for org in ("org0", "org2")
    )
    wire = Transaction(proposal, write_set, endorsements, "sig-c0").to_wire()
    log = HashChainLog()
    log.append(wire, True)
    log.append(wire, False)
    return log


def pins():
    """The current pins, in the shape of the constants above."""
    return {
        "smoke_heads": smoke_heads(),
        "chain": tuple(block.block_hash for block in hand_built_chain()),
    }


def test_chaos_smoke_ledger_heads():
    assert smoke_heads() == {f"org{index}": (SMOKE_HEAD, 2) for index in range(4)}


def test_hand_built_chain():
    log = hand_built_chain()
    assert [(block.height, block.valid) for block in log] == [(0, True), (1, False)]
    assert log.block_at(0).previous_hash == GENESIS_HASH
    assert log.block_at(1).previous_hash == log.block_at(0).block_hash
    assert tuple(block.block_hash for block in log) == CHAIN
    log.verify()
