"""Tests for client-scoped Lamport clocks and happened-before.

Happened-before between ``OpClock``s is the rule the MV-Register
applies (Figure 4): the tests observe it through which assignments
survive.
"""

import pytest

from repro.crdt import MVRegister
from repro.crdt.clock import LamportClock, OpClock


def survivors(*clocks):
    """Values of the assignments a register keeps; value i has clocks[i]."""
    register = MVRegister()
    for index, clock in enumerate(clocks):
        register.assign(index, clock, f"{clock.client_id}#{clock.counter}#{index}")
    return register.read()


class TestOpClock:
    def test_same_client_orders_by_counter(self):
        early = OpClock("alice", 1)
        late = OpClock("alice", 2)
        assert survivors(early, late) == [1]
        assert survivors(late, early) == [0]

    def test_equal_clocks(self):
        assert survivors(OpClock("alice", 3), OpClock("alice", 3)) == [0, 1]

    def test_different_clients_are_concurrent(self):
        # Each client's Lamport clock is independent (Section 6), so
        # happened-before is never inferable across clients.
        a = OpClock("alice", 1)
        b = OpClock("bob", 100)
        assert survivors(a, b) == [0, 1]
        assert survivors(b, a) == [0, 1]

    def test_a_vector_clock_wire_does_not_parse(self):
        # Operations carry one clock type; a peer's vector-clock wire is
        # malformed.
        with pytest.raises(KeyError):
            OpClock.from_wire({"vector": {"n1": 2}})

    def test_wire_roundtrip(self):
        clock = OpClock("alice", 9)
        assert OpClock.from_wire(clock.to_wire()) == clock


class TestLamportClock:
    def test_tick_is_monotonic(self):
        clock = LamportClock("alice")
        stamps = [clock.tick() for _ in range(3)]
        assert [s.counter for s in stamps] == [1, 2, 3]
        assert all(s.client_id == "alice" for s in stamps)

    def test_peek_does_not_advance(self):
        clock = LamportClock("alice")
        clock.tick()
        assert clock.peek().counter == 1
        assert clock.peek().counter == 1

    def test_observe_implements_receive_rule(self):
        clock = LamportClock("alice")
        clock.observe(OpClock("bob", 10))
        assert clock.tick().counter == 11

    def test_observe_smaller_is_noop(self):
        clock = LamportClock("alice", start=5)
        clock.observe(OpClock("bob", 2))
        assert clock.counter == 5
