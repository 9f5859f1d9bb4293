"""Tests for shared baseline building blocks."""

import pytest

from repro.baselines.common import (
    BatchServer,
    FabricAuctionContract,
    FabricSyntheticContract,
    FabricVotingContract,
    Nic,
    VersionedState,
)
from repro.errors import ContractError
from repro.sim import Simulator


class TestVersionedState:
    def test_missing_key_reads_none_version_zero(self):
        state = VersionedState()
        assert state.get("k") == (None, 0)

    def test_put_bumps_version(self):
        state = VersionedState()
        state.put("k", "a")
        state.put("k", "b")
        assert state.get("k") == ("b", 2)

    def test_mvcc_check_detects_stale_reads(self):
        state = VersionedState()
        state.put("k", "v")
        read_set = [("k", 1)]
        assert state.mvcc_check(read_set)
        state.put("k", "v2")
        assert not state.mvcc_check(read_set)

    def test_apply_write_set(self):
        state = VersionedState()
        state.apply_write_set([("a", 1), ("b", 2)])
        assert state.value("a") == 1
        assert len(state) == 2


class TestFabricVotingContract:
    def test_vote_reads_and_writes_hot_tally_key(self):
        contract = FabricVotingContract()
        state = VersionedState()
        read_set, write_set = contract.simulate(
            state, {"voter": "v1", "party": "p1", "election": "e0"}
        )
        keys_read = [key for key, _ in read_set]
        assert "voting/e0/p1/count" in keys_read
        state.apply_write_set(write_set)
        assert contract.read(state, {"party": "p1", "election": "e0"}) == 1

    def test_concurrent_votes_conflict_on_tally(self):
        # The MVCC contention at the heart of Fabric's voting failures:
        # two votes endorsed against the same tally version conflict.
        contract = FabricVotingContract()
        state = VersionedState()
        read_a, write_a = contract.simulate(state, {"voter": "a", "party": "p1", "election": "e0"})
        read_b, write_b = contract.simulate(state, {"voter": "b", "party": "p1", "election": "e0"})
        assert state.mvcc_check(read_a)
        state.apply_write_set(write_a)
        assert not state.mvcc_check(read_b)

    def test_revote_decrements_previous_party(self):
        contract = FabricVotingContract()
        state = VersionedState()
        _, write_set = contract.simulate(state, {"voter": "v", "party": "p1", "election": "e0"})
        state.apply_write_set(write_set)
        _, write_set = contract.simulate(state, {"voter": "v", "party": "p2", "election": "e0"})
        state.apply_write_set(write_set)
        assert contract.read(state, {"party": "p1", "election": "e0"}) == 0
        assert contract.read(state, {"party": "p2", "election": "e0"}) == 1


class TestFabricAuctionContract:
    def test_bids_accumulate_and_track_highest(self):
        contract = FabricAuctionContract()
        state = VersionedState()
        for amount in (10, 5):
            _, write_set = contract.simulate(
                state, {"auction": "a0", "bidder": "alice", "amount": amount}
            )
            state.apply_write_set(write_set)
        assert contract.read(state, {"auction": "a0"}) == {"bidder": "alice", "amount": 15}

    def test_lower_bid_does_not_take_highest(self):
        contract = FabricAuctionContract()
        state = VersionedState()
        _, ws = contract.simulate(state, {"auction": "a0", "bidder": "alice", "amount": 10})
        state.apply_write_set(ws)
        _, ws = contract.simulate(state, {"auction": "a0", "bidder": "bob", "amount": 3})
        state.apply_write_set(ws)
        assert contract.read(state, {"auction": "a0"})["bidder"] == "alice"

    def test_non_positive_bid_rejected(self):
        with pytest.raises(ContractError):
            FabricAuctionContract().simulate(
                VersionedState(), {"auction": "a0", "bidder": "b", "amount": 0}
            )


class TestFabricSyntheticContract:
    def test_counters_increment(self):
        contract = FabricSyntheticContract()
        state = VersionedState()
        _, ws = contract.simulate(state, {"object_indexes": [0, 1]})
        state.apply_write_set(ws)
        assert contract.read(state, {"object_indexes": [0, 1]}) == [1, 1]


class TestBatchServer:
    def test_cuts_on_timeout(self):
        sim = Simulator()
        batches = []

        def on_batch(batch):
            batches.append((sim.now, len(batch)))
            return
            yield

        server = BatchServer(sim, per_item=0.0, batch_timeout=1.0, max_batch=100, on_batch=on_batch)
        server.enqueue("a")
        server.enqueue("b")
        sim.run(until=5.0)
        assert batches == [(1.0, 2)]
        assert server.batches_cut == 1
        assert server.items_processed == 2

    def test_cuts_on_max_batch(self):
        sim = Simulator()
        batches = []

        def on_batch(batch):
            batches.append((sim.now, len(batch)))
            return
            yield

        server = BatchServer(sim, per_item=0.0, batch_timeout=100.0, max_batch=3, on_batch=on_batch)
        for item in range(7):
            server.enqueue(item)
        sim.run(until=200.0)
        # 3 + 3 immediately, then 1 after the timeout.
        assert [size for _, size in batches] == [3, 3, 1]

    def test_service_time_scales_with_batch(self):
        sim = Simulator()
        done = []

        def on_batch(batch):
            done.append(sim.now)
            return
            yield

        server = BatchServer(sim, per_item=0.5, batch_timeout=0.1, max_batch=10, on_batch=on_batch)
        for item in range(4):
            server.enqueue(item)
        sim.run(until=10.0)
        assert done == [pytest.approx(0.1 + 4 * 0.5)]

    def test_queue_length_visibility(self):
        sim = Simulator()
        server = BatchServer(
            sim, per_item=0.0, batch_timeout=10.0, max_batch=100, on_batch=lambda b: iter(()),
        )
        server.enqueue("x")
        assert server.queue_length == 1


class TestNic:
    def test_transmissions_serialize(self):
        sim = Simulator()
        nic = Nic(sim, bandwidth_bytes_per_s=1000.0)
        done = []

        def sender(name, size):
            yield nic.transmit(size)
            done.append((sim.now, name))

        sim.process(sender("a", 1000))
        sim.process(sender("b", 500))
        sim.run()
        assert done == [(1.0, "a"), (1.5, "b")]
