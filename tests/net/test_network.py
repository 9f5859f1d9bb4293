"""Tests for the simulated network fabric."""

import random

import pytest

from repro.net import LatencyModel, LinkFaults, Message, Network
from repro.sim import Simulator


def build(faults=None, latency=None, seed=0):
    sim = Simulator()
    network = Network(sim, random.Random(seed), latency=latency, faults=faults)
    return sim, network


def test_delivery_after_link_delay():
    sim, network = build(latency=LatencyModel(one_way_delay=0.05, jitter_std=0.0))
    received = []
    network.register("b", lambda m: received.append((sim.now, m.body)))
    network.send(Message(sender="a", recipient="b", msg_type="t", body="hi", size_bytes=0))
    sim.run()
    assert len(received) == 1
    assert received[0][0] == pytest.approx(0.05)
    assert received[0][1] == "hi"


def test_duplicate_registration_rejected():
    _, network = build()
    network.register("a", lambda m: None)
    with pytest.raises(ValueError):
        network.register("a", lambda m: None)
    assert network.is_registered("a")


def test_send_to_unknown_recipient_is_dropped():
    sim, network = build()
    network.send(Message(sender="a", recipient="ghost", msg_type="t", body=None))
    sim.run()
    assert network.dropped_count == 1
    assert network.delivered_count == 0


def test_loss_drops_messages():
    sim, network = build(faults=LinkFaults(loss_probability=1.0))
    network.register("b", lambda m: pytest.fail("must not deliver"))
    network.send(Message(sender="a", recipient="b", msg_type="t", body=None))
    sim.run()
    assert network.dropped_count == 1


def test_duplication_delivers_twice():
    sim, network = build(faults=LinkFaults(duplicate_probability=1.0))
    received = []
    network.register("b", lambda m: received.append(m.message_id))
    network.send(Message(sender="a", recipient="b", msg_type="t", body=None))
    sim.run()
    assert len(received) == 2


def test_corruption_marks_message():
    sim, network = build(faults=LinkFaults(corrupt_probability=1.0))
    received = []
    network.register("b", lambda m: received.append(m.corrupted))
    network.send(Message(sender="a", recipient="b", msg_type="t", body=None))
    sim.run()
    assert received == [True]


def test_partition_blocks_cross_group_traffic():
    sim, network = build()
    received = []
    network.register("a", lambda m: received.append("a"))
    network.register("b", lambda m: received.append("b"))
    network.register("c", lambda m: received.append("c"))
    network.partition({"a", "b"}, {"c"})
    network.send(Message(sender="a", recipient="b", msg_type="t", body=None))
    network.send(Message(sender="a", recipient="c", msg_type="t", body=None))
    sim.run()
    assert received == ["b"]
    network.heal_partition()
    network.send(Message(sender="a", recipient="c", msg_type="t", body=None))
    sim.run()
    assert received == ["b", "c"]


def test_larger_messages_arrive_later():
    sim, network = build(latency=LatencyModel(one_way_delay=0.01, jitter_std=0.0))
    arrivals = {}
    network.register("b", lambda m: arrivals.setdefault(m.body, sim.now))
    network.send(Message(sender="a", recipient="b", msg_type="t", body="big", size_bytes=12_500_000))
    network.send(Message(sender="a", recipient="b", msg_type="t", body="small", size_bytes=10))
    sim.run()
    assert arrivals["small"] < arrivals["big"]


def test_message_clone_shares_payload_but_not_identity():
    message = Message(sender="a", recipient="b", msg_type="t", body={"x": 1})
    clone = message.clone()
    assert clone.body is message.body
    assert clone.message_id != message.message_id


def test_counters_track_traffic():
    sim, network = build()
    network.register("b", lambda m: None)
    for _ in range(3):
        network.send(Message(sender="a", recipient="b", msg_type="t", body=None))
    network.send(Message(sender="a", recipient="b", msg_type="u", body=None, size_bytes=7))
    sim.run()
    assert network.sent_count == 4
    assert network.delivered_count == 4
    assert network.sent_by_type == {"t": 3, "u": 1}
    assert network.bytes_by_type == {"t": 3 * 256, "u": 7}


def test_schedule_rejects_negative_infinity_delay_check():
    # -inf fails the "cannot schedule in the past" check (see
    # tests/sim/test_core.py for the full guard matrix); the network
    # must therefore never produce non-finite delays. LatencyModel
    # already clamps its delays non-negative; this pins the contract.
    sim, network = build(latency=LatencyModel(one_way_delay=0.01, jitter_std=0.0))
    network.register("b", lambda m: None)
    network.send(Message(sender="a", recipient="b", msg_type="t", body=None))
    sim.run()
    assert network.delivered_count == 1


def test_no_override_fast_path_uses_live_default_model():
    # The network's one latency model is consulted live, so swapping
    # network.latency takes effect immediately.
    sim, network = build(latency=LatencyModel(one_way_delay=0.1, jitter_std=0.0))
    arrivals = []
    network.register("b", lambda m: arrivals.append(sim.now))
    network.latency = LatencyModel(one_way_delay=0.007, jitter_std=0.0)
    network.send(Message(sender="a", recipient="b", msg_type="t", body=None, size_bytes=0))
    sim.run()
    assert arrivals[-1] == pytest.approx(0.007)
