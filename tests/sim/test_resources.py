"""Tests for finite-capacity resources and locks."""

import pytest

from repro.sim import Lock, Resource, Simulator


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


def test_requests_granted_up_to_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    first, second, third = (resource.serve(1.0) for _ in range(3))
    sim.run(until=0.5)
    assert (first.started_at, second.started_at, third.started_at) == (0.0, 0.0, None)
    assert resource.in_use == 2
    assert resource.queue_length == 1


def test_release_hands_slot_to_next_waiter():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    first = resource.serve(1.0)
    second = resource.serve(1.0)
    sim.run(until=1.0)
    assert first.triggered and not second.triggered
    assert second.started_at == 1.0
    assert resource.in_use == 1 and resource.queue_length == 0
    sim.run()
    assert second.triggered and resource.in_use == 0


def test_slowdown_is_read_when_service_starts():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    resource.serve(1.0)
    queued = resource.serve(1.0)
    resource.slowdown = 3.0  # the holder already started; the queued one has not
    done = []
    queued.add_callback(lambda event: done.append(sim.now))
    sim.run()
    assert done == [4.0]


def test_service_has_one_waiter():
    sim = Simulator()
    service = Resource(sim).serve(1.0)
    service.add_callback(lambda event: None)
    with pytest.raises(RuntimeError):
        service.add_callback(lambda event: None)


def test_serve_models_fifo_service_times():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    done = []

    def job(name, duration):
        yield resource.serve(duration)
        done.append((sim.now, name))

    sim.process(job("a", 2.0))
    sim.process(job("b", 1.0))
    sim.run()
    # b waits for a: finishes at 2.0 + 1.0.
    assert done == [(2.0, "a"), (3.0, "b")]


def test_parallel_capacity_overlaps_service():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    done = []

    def job(name):
        yield resource.serve(1.0)
        done.append((sim.now, name))

    for name in ("a", "b", "c"):
        sim.process(job(name))
    sim.run()
    assert done == [(1.0, "a"), (1.0, "b"), (2.0, "c")]


def test_lock_serializes():
    sim = Simulator()
    lock = Lock(sim)
    order = []

    def critical(name):
        yield lock.serve(1.0)
        order.append((sim.now, name))

    sim.process(critical("x"))
    sim.process(critical("y"))
    sim.run()
    assert order == [(1.0, "x"), (2.0, "y")]


def test_queue_drains_in_fifo_order():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def job(name):
        yield resource.serve(0.5)
        order.append(name)

    for name in "abcde":
        sim.process(job(name))
    sim.run()
    assert order == list("abcde")


def test_utilization_accounting():
    sim = Simulator()
    resource = Resource(sim, capacity=2)

    def job(start, duration):
        yield sim.timeout(start)
        yield resource.serve(duration)

    # Busy: one slot for [0,4), a second for [1,3): integral = 6 of 2*4.
    sim.process(job(0.0, 4.0))
    sim.process(job(1.0, 2.0))
    sim.run()
    assert resource.utilization() == 6.0 / 8.0


def test_utilization_of_idle_resource_is_zero():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert resource.utilization() == 0.0
