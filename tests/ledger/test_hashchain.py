"""Tests for blocks and the append-only hash-chain log."""

import pytest

from repro.crypto.hashing import GENESIS_HASH
from repro.errors import LedgerError
from repro.ledger import Block, HashChainLog


def test_empty_log_head_is_genesis():
    log = HashChainLog()
    assert len(log) == 0
    assert log.head_hash == GENESIS_HASH


def test_append_chains_blocks():
    log = HashChainLog()
    first = log.append({"txn": 1}, valid=True)
    second = log.append({"txn": 2}, valid=False)
    assert first.height == 0
    assert first.previous_hash == GENESIS_HASH
    assert second.previous_hash == first.block_hash
    assert log.head_hash == second.block_hash
    assert len(log) == 2


def test_block_hash_covers_payload_and_validity():
    a = Block(0, GENESIS_HASH, {"x": 1}, valid=True)
    b = Block(0, GENESIS_HASH, {"x": 2}, valid=True)
    c = Block(0, GENESIS_HASH, {"x": 1}, valid=False)
    assert a.block_hash != b.block_hash
    assert a.block_hash != c.block_hash


def test_verify_accepts_intact_chain():
    log = HashChainLog()
    for i in range(5):
        log.append({"txn": i}, valid=True)
    log.verify()  # must not raise


def test_tampering_breaks_verification_of_all_later_blocks():
    # Section 4: tampering with one transaction invalidates the
    # signature of all succeeding transactions in the hash-chain log.
    log = HashChainLog()
    for i in range(5):
        log.append({"txn": i}, valid=True)
    log.tamper(1, {"txn": "evil"})
    with pytest.raises(LedgerError, match="height 2"):
        log.verify()


def test_tampering_the_head_is_detected_via_receipts_not_chain():
    # A tampered head block has no successor, so verify() alone cannot
    # catch it; the receipt's signed hash does (checked here directly).
    log = HashChainLog()
    original = log.append({"txn": "real"}, valid=True)
    receipt_hash = original.block_hash
    log.tamper(0, {"txn": "evil"})
    assert log.block_at(0).block_hash != receipt_hash


def test_block_at_bounds():
    log = HashChainLog()
    log.append({"x": 1}, valid=True)
    assert log.block_at(0).payload == {"x": 1}
    with pytest.raises(LedgerError):
        log.block_at(7)


def test_find_payload():
    log = HashChainLog()
    log.append({"id": "a"}, valid=True)
    log.append({"id": "b"}, valid=True)
    found = log.find_payload(lambda p: p["id"] == "b")
    assert found is not None and found.height == 1
    assert log.find_payload(lambda p: p["id"] == "zz") is None


def test_iteration_in_order():
    log = HashChainLog()
    for i in range(3):
        log.append({"n": i}, valid=True)
    assert [block.payload["n"] for block in log] == [0, 1, 2]
