"""Property and unit tests for the watermark anti-entropy digests.

The watermark digest must be a *lossless* summary of an arbitrary
committed-id set — including out-of-order arrivals that leave gaps
below the high watermark (Lamport counters consumed by reads and
failed proposals never commit) and ids that do not parse as
``client:counter`` at all. These hypothesis tests compare every
digest operation against the plain-set ground truth.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.antientropy import WatermarkDigest, parse_txn_id
from repro.ledger import Ledger

clients = st.sampled_from(["alice", "bob", "carol", "client0"])
counters = st.integers(min_value=1, max_value=60)
parsed_ids = st.builds(lambda c, n: f"{c}:{n}", clients, counters)
# Ids without a numeric counter exercise the extras fallback.
odd_ids = st.sampled_from(["genesis", "weird:id:x", "noseparator", "a:b:c"])
txn_ids = st.one_of(parsed_ids, odd_ids)
id_lists = st.lists(txn_ids, max_size=120)


# -- WatermarkDigest ------------------------------------------------------------


def build(ids):
    digest = WatermarkDigest()
    for txn_id in ids:
        digest.add(txn_id)
    return digest


@given(id_lists)
def test_digest_matches_set_semantics(ids):
    digest = build(ids)
    truth = set(ids)
    assert len(digest) == len(truth)
    assert set(digest.ids()) == truth
    for txn_id in truth:
        assert txn_id in digest


@given(id_lists, id_lists)
def test_covers_rejects_absent_ids(present, probes):
    digest = build(present)
    truth = set(present)
    for probe in probes:
        assert digest.covers(probe) == (probe in truth)


@given(id_lists)
def test_add_returns_false_only_on_duplicates(ids):
    digest = WatermarkDigest()
    seen = set()
    for txn_id in ids:
        assert digest.add(txn_id) == (txn_id not in seen)
        seen.add(txn_id)


@given(id_lists)
def test_wire_round_trip(ids):
    digest = build(ids)
    clone = WatermarkDigest.from_wire(digest.to_wire())
    assert len(clone) == len(digest)
    assert list(clone.ids()) == list(digest.ids())
    assert clone.client_count == digest.client_count
    assert clone.gap_count == digest.gap_count


@given(id_lists, id_lists)
def test_difference_matches_set_difference(a_ids, b_ids):
    a, b = build(a_ids), build(b_ids)
    assert set(a.difference(b)) == set(a_ids) - set(b_ids)
    assert set(b.difference(a)) == set(b_ids) - set(a_ids)


@given(id_lists)
@settings(max_examples=50)
def test_gap_ranges_stay_sorted_and_disjoint(ids):
    digest = build(ids)
    for mark in digest._marks.values():
        previous_hi = 0
        for lo, hi in mark.gaps:
            assert previous_hi < lo <= hi < mark.high
            previous_hi = hi


def test_out_of_order_gap_fill():
    # Commit 5 first (gap 1..4), then fill the middle of the gap.
    digest = WatermarkDigest()
    digest.add("c:5")
    assert digest.gap_count == 1
    digest.add("c:3")
    assert set(digest.ids()) == {"c:3", "c:5"}
    assert digest.gap_count == 2  # the gap split into 1..2 and 4..4
    digest.add("c:4")
    digest.add("c:1")
    digest.add("c:2")
    assert digest.gap_count == 0
    assert set(digest.ids()) == {f"c:{n}" for n in range(1, 6)}


def test_parse_txn_id_shapes():
    assert parse_txn_id("client7:42") == ("client7", 42)
    assert parse_txn_id("a:b:9") == ("a:b", 9)
    assert parse_txn_id("genesis") == ("genesis", None)
    assert parse_txn_id("c:-3") == ("c:-3", None)


# -- the committed set a channel keeps --------------------------------------------


@given(id_lists, id_lists)
def test_missing_and_surplus_match_set_differences(local_ids, remote_ids):
    # Reconcile's two calls: what the remote covers that we lack (pull)
    # and what we cover that the remote lacks (push).
    local, remote = build(local_ids), build(remote_ids)
    assert set(remote.difference(local)) == set(remote_ids) - set(local_ids)
    assert set(local.difference(remote)) == set(local_ids) - set(remote_ids)


@given(id_lists)
def test_log_preserves_first_commit_order(ids):
    # A channel commits an id once into its ledger and its digest; the
    # ledger's committed set is the log, in first-commit order.
    ledger, digest = Ledger(), WatermarkDigest()
    expected = []
    for txn_id in ids:
        if ledger.is_valid_transaction(txn_id):
            assert not digest.add(txn_id)
            continue
        ledger.commit(txn_id, [], {"id": txn_id}, valid=True)
        assert digest.add(txn_id)
        expected.append(txn_id)
    assert list(ledger.valid) == expected
    assert len(digest) == len(expected)
