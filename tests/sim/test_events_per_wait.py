"""Count gate: the kernel spends one heap entry per wait.

Counts, not seconds: ``Simulator.processed_events`` advances once per
heap pop, so these pin how many heap round-trips each kind of wait
costs. With every wake going through the heap (the retired kernel,
``tests/sim/reference_kernel.py``) an uncontended ``Resource.serve``
cost three — grant hop, timeout fire, wake hop — and a BIDL commit 142.
A ``Resource.serve`` is itself one kernel object: one ``Service`` event,
no request event, timeout or generator frame.
"""

import inspect
import sys

from repro.api import ExperimentConfig, run_experiment
from repro.net.network import Network
from repro.sim import Event, Resource, Simulator

PROCESS_START = 1  # a new process always enters through the heap


def _pops(sim, body):
    before = sim.processed_events
    sim.process(body)
    sim.run()
    return sim.processed_events - before - PROCESS_START


def _serve(cpu, duration):
    yield cpu.serve(duration)


def test_uncontended_serve_costs_one_event():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    assert _pops(sim, _serve(cpu, 0.5)) == 1


def test_uncontended_serve_allocates_one_event_and_no_generator():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    sim.process(_serve(cpu, 0.5))
    events, generators = [], set()

    def profile(frame, what, arg):
        if what != "call":
            return
        code = frame.f_code
        if code.co_flags & inspect.CO_GENERATOR:
            generators.add(code.co_name)
        elif code.co_name == "__init__":
            new = frame.f_locals.get("self")
            if isinstance(new, Event) and all(new is not seen for seen in events):
                events.append(new)

    sys.setprofile(profile)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    assert sim.now == 0.5
    assert [type(event).__name__ for event in events] == ["Service"]
    assert generators == {"_serve"}  # the process body, nothing inside serve


def test_sequential_timeouts_cost_one_event_each():
    sim = Simulator()

    def body(count):
        for _ in range(count):
            yield sim.timeout(1.0)

    assert _pops(sim, body(7)) == 7


def test_already_triggered_events_cost_nothing():
    sim = Simulator()
    done = sim.event().trigger("ready")

    def body():
        for _ in range(5):
            assert (yield done) == "ready"

    assert _pops(sim, body()) == 0


def test_contended_handoff_costs_two_events_per_serve():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    waiters = 4
    sim.process(_serve(cpu, 1.0))
    sim.run(until=0.5)
    for _ in range(waiters):  # queue up while the slot is held
        sim.process(_serve(cpu, 1.0))
    sim.run()
    assert sim.now == (1 + waiters) * 1.0
    # The holder pays its service's end; every waiter pays the hand-off,
    # which the release schedules mid-callback, and its end.
    assert sim.processed_events - (1 + waiters) * PROCESS_START == 1 + 2 * waiters


def test_same_instant_company_still_goes_through_the_heap():
    sim = Simulator()
    order = []

    def body(name):
        yield sim.timeout(1.0)
        order.append(name)

    sim.process(body("a"))
    sim.process(body("b"))
    sim.run()
    assert order == ["a", "b"]
    # "a" fires with "b"'s timeout pending at the same instant, "b" with
    # "a"'s wake pending: neither is alone, so both wakes are scheduled.
    assert sim.processed_events == 2 * PROCESS_START + 2 + 2


def _record_instances(monkeypatch, cls):
    created, init = [], cls.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(cls, "__init__", recording_init)
    return created


def test_bidl_events_per_commit(monkeypatch):
    sims = _record_instances(monkeypatch, Simulator)
    networks = _record_instances(monkeypatch, Network)
    result = run_experiment(
        ExperimentConfig(
            system="bidl", app="synthetic", arrival_rate=3000.0, duration=2.0, scale=20.0, seed=0
        )
    )
    (sim,), (network,) = sims, networks
    # The protocol's own counts are what they were under the retired kernel ...
    assert (result.committed, network.sent_count, network.delivered_count) == (301, 7018, 7002)
    # ... and the kernel turns them over in about half the heap entries (was 142.9).
    assert sim.processed_events / result.committed <= 85
