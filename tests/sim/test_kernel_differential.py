"""Differential test: the one-entry-per-wait kernel against the retired one.

Random process programs — equal-delay and zero-delay timeouts,
``Resource`` contention under changing slowdowns, ``AnyOf``,
shared events triggered from inside running processes, several waiters
on one event, plain
callbacks beside processes, processes waiting on processes — run on
``repro.sim`` and on ``tests/sim/reference_kernel.py`` (every wake
through the heap, ``yield from resource.serve`` a generator over a
request event and a timeout). The full ``(now, label)`` execution trace
and every resource's ``busy_seconds()`` bits must be equal, with and
without a seeded tie breaker: the tail-run rule and the one-event
``Service`` may save heap entries, never reorder anything.
"""

import itertools
import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.sim import AnyOf, Event, Resource, Simulator
from tests.sim import reference_kernel

KERNEL = SimpleNamespace(Simulator=Simulator, Event=Event, AnyOf=AnyOf, Resource=Resource)

SHARED_EVENTS = 3
# Few distinct delays, so that timeouts collide at one instant.
_delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])
_event_ids = st.integers(0, SHARED_EVENTS - 1)
_parts = st.lists(_delays | _event_ids, min_size=1, max_size=3)
_timeout = st.tuples(st.just("timeout"), _delays)
_serve = st.tuples(st.just("serve"), st.integers(0, 1), _delays)
# Set a resource's slowdown; only services that start afterwards see it.
_slow = st.tuples(st.just("slow"), st.integers(0, 1), st.sampled_from([0.5, 1.0, 2.0, 3.0]))
_capacities = st.tuples(st.integers(1, 4), st.integers(1, 4))
_tie_seeds = st.none() | st.integers(0, 7)
_untils = st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0])


def _ops(children):
    return st.lists(
        st.one_of(
            _timeout,
            _serve,
            _slow,
            st.tuples(st.just("wait"), _event_ids),
            st.tuples(st.just("trigger"), _event_ids),
            st.tuples(st.just("any"), _parts),
            # A plain callback on a timeout, alone or beside the process.
            st.tuples(st.just("watch"), _delays, st.booleans()),
            # A child process, joined or left running.
            st.tuples(st.just("spawn"), children, st.booleans()),
        ),
        max_size=6,
    )


_programs = st.lists(st.recursive(_ops(st.just([])), _ops, max_leaves=4), min_size=1, max_size=5)
# Contention-only programs: services, slowdown changes and timeouts.
_resource_programs = st.lists(
    st.lists(st.one_of(_serve, _serve, _slow, _timeout), max_size=6), min_size=1, max_size=6
)


def _execute(kernel, program, capacities, tie_seed, until):
    """Run ``program`` on ``kernel``; return (trace, busy bits, final time, heap pops)."""
    sim = kernel.Simulator()
    if tie_seed is not None:
        sim.install_tie_breaker(_breaker(tie_seed))
    resources = [kernel.Resource(sim, capacity) for capacity in capacities]
    shared = [kernel.Event(sim) for _ in range(SHARED_EVENTS)]
    trace = []
    names = itertools.count()

    def part(name, index, spec):
        # A float is a fresh timeout, an int one of the shared events.
        return sim.timeout(spec, f"{name}.{index}") if isinstance(spec, float) else shared[spec]

    def body(name, ops):
        def log(what):
            trace.append((sim.now, f"{name}:{what}"))

        log("start")
        for index, op in enumerate(ops):
            kind = op[0]
            if kind == "timeout":
                log((yield sim.timeout(op[1], f"{name}.{index}")))
            elif kind == "serve":
                service = resources[op[1]].serve(op[2])
                if isinstance(service, kernel.Event):
                    yield service
                else:  # the retired kernel's request / timeout / release generator
                    yield from service
                log(f"served{op[1]}")
            elif kind == "slow":
                resources[op[1]].slowdown = op[2]
                log(f"slow{op[1]}={op[2]}")
            elif kind == "wait":
                log((yield shared[op[1]]))
            elif kind == "trigger":
                if not shared[op[1]].triggered:
                    shared[op[1]].trigger(f"{name}.{index}")
                log(f"trigger{op[1]}")
            elif kind == "any":
                parts = [part(name, i, spec) for i, spec in enumerate(op[1])]
                winner = yield kernel.AnyOf(sim, parts)
                log(f"any{parts.index(winner)}={winner.value}")
            elif kind == "watch":
                timer = sim.timeout(op[1], f"{name}.{index}")
                timer.add_callback(lambda event, log=log: log(f"saw {event.value}"))
                if op[2]:
                    log((yield timer))
            elif kind == "spawn":
                child_name = f"{name}/{next(names)}"
                child = sim.process(body(child_name, op[1]), name=child_name)
                if op[2]:
                    log((yield child))
        log("end")
        return name

    for ops in program:
        name = f"p{next(names)}"
        sim.process(body(name, ops), name=name)
    if until is not None:
        sim.run(until=until)
        trace.append((sim.now, "until"))
    sim.run()
    busy = [resource.busy_seconds().hex() for resource in resources]
    return trace, busy, sim.now, sim.processed_events


def _breaker(seed):
    randrange = random.Random(seed).randrange
    return lambda: randrange(1 << 32)


def _check(program, capacities, tie_seed, until):
    expected, expected_busy, expected_now, expected_pops = _execute(
        reference_kernel, program, capacities, tie_seed, until
    )
    trace, busy, now, pops = _execute(KERNEL, program, capacities, tie_seed, until)
    assert trace == expected
    assert busy == expected_busy
    assert now == expected_now
    assert pops <= expected_pops


@settings(max_examples=400, deadline=None)
@given(_programs, _capacities, _tie_seeds, st.none() | _untils)
def test_execution_trace_matches_retired_kernel(program, capacities, tie_seed, until):
    _check(program, capacities, tie_seed, until)


@settings(max_examples=200, deadline=None)
@given(_resource_programs, _capacities, _tie_seeds)
def test_mid_program_slowdown_changes_match_retired_kernel(program, capacities, tie_seed):
    _check(program, capacities, tie_seed, None)


@settings(max_examples=200, deadline=None)
@given(_resource_programs, _tie_seeds, st.none() | _untils)
def test_capacity_two_resources_match_retired_kernel(program, tie_seed, until):
    _check(program, (2, 2), tie_seed, until)


@settings(max_examples=200, deadline=None)
@given(_programs, _capacities, _tie_seeds, _untils)
def test_bounded_first_run_matches_retired_kernel(program, capacities, tie_seed, until):
    _check(program, capacities, tie_seed, until)
