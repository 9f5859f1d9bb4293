"""Deterministic discrete-event simulation kernel.

This package provides the substrate on which every simulated node
(organization, client, orderer, sequencer, leader) runs:

* :class:`~repro.sim.core.Simulator` — the event loop;
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AnyOf` — synchronization primitives;
* :class:`~repro.sim.process.Process` — generator-based coroutines;
* :class:`~repro.sim.resources.Resource` and
  :class:`~repro.sim.resources.Lock` — finite-capacity servers used to
  model CPU contention and the CRDT-cache lock;
* :class:`~repro.sim.rng.RngRegistry` — named, seeded random streams so
  every experiment is reproducible.

The kernel guarantees an *event-loop contract* (stated in full in
``repro.sim.core``): deterministic ``(time, sequence)`` ordering, no
unseeded randomness, and safety of passive observation — the
``repro.obs`` layer may watch any run without changing its simulated
results. Each submodule's docstring notes how it upholds the contract.
"""

from repro.sim.core import Simulator
from repro.sim.events import AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Lock, Resource, Service
from repro.sim.rng import RngRegistry

__all__ = [
    "AnyOf",
    "Event",
    "Lock",
    "Process",
    "Resource",
    "RngRegistry",
    "Service",
    "Simulator",
    "Timeout",
]
