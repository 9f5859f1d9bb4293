"""Controlled nondeterminism for schedule exploration.

The simulator is deterministic by construction: events at the same
simulated time run in scheduling order, and message delivery times come
straight from the latency model. That determinism is what makes golden
seeds and replay possible — but it also means a single seed only ever
exercises *one* interleaving out of the huge space the paper's safety
claims quantify over.

An :class:`ExploreProfile` re-introduces that space as explicit,
seeded choice points, so each profile value is still one perfectly
reproducible run:

* **Tie permutation** (``tie_seed``): events scheduled for the same
  simulated instant are ordered by a seeded random priority instead of
  scheduling order. This permutes exactly the orderings the event-loop
  contract leaves unspecified in real deployments (two messages
  arriving "at the same time").
* **Delivery jitter** (``jitter_seed``/``jitter_factor``): every
  delivered message is delayed by an extra uniform fraction of its
  modeled latency, up to ``jitter_factor``. Messages never arrive
  *earlier* than the latency model allows, so jitter stays within
  latency bounds while reordering messages relative to each other.

Both draws come from dedicated ``random.Random`` streams derived only
from the profile's seeds — never from the run's RNG registry — so an
active profile perturbs event order without shifting any protocol
stream, and an inactive profile (``ExperimentConfig``'s default) leaves
the run bit-for-bit identical to the pre-explore behavior (pinned by the
golden-seed tests).

Profiles are frozen, hashable, and JSON-round-trippable: they are one
of the choice points a ``repro.explore`` counterexample artifact
records, and replaying the artifact re-installs the identical profile.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigError

# Upper bound on the jitter fraction: beyond this the "jitter" would
# dominate the modeled latency and starve client timeouts, turning an
# exploration knob into a de-facto fault.
MAX_JITTER_FACTOR = 2.0


def _derived_rng(seed: int, name: str) -> random.Random:
    """A stream derived like ``RngRegistry`` streams, but standalone.

    Explore streams must not touch the registry: registry streams feed
    the protocol, and the whole point of a profile is to perturb the
    *order* of events without shifting any protocol draw.
    """
    digest = hashlib.sha256(f"explore:{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class ExploreProfile:
    """One assignment of the run's controlled-nondeterminism choice points.

    ``None`` seeds disable the corresponding choice point; a fully
    inactive profile is behaviorally identical to no profile at all.
    """

    tie_seed: Optional[int] = None
    jitter_seed: Optional[int] = None
    jitter_factor: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter_factor <= MAX_JITTER_FACTOR:
            raise ConfigError(
                f"jitter_factor must be in [0, {MAX_JITTER_FACTOR}], got {self.jitter_factor}"
            )
        if self.jitter_factor > 0.0 and self.jitter_seed is None:
            raise ConfigError("jitter_factor > 0 requires a jitter_seed")

    # -- activity ---------------------------------------------------------

    @property
    def permutes_ties(self) -> bool:
        return self.tie_seed is not None

    @property
    def jitters_delivery(self) -> bool:
        return self.jitter_seed is not None and self.jitter_factor > 0.0

    @property
    def active(self) -> bool:
        return self.permutes_ties or self.jitters_delivery

    # -- hooks ------------------------------------------------------------

    def tie_breaker(self) -> Optional[Callable[[], int]]:
        """Priority source for same-time event ties (fresh stream)."""
        if not self.permutes_ties:
            return None
        rng = _derived_rng(self.tie_seed, "ties")
        randrange = rng.randrange
        return lambda: randrange(1 << 32)

    def delivery_jitter(self) -> Optional[Callable[[float], float]]:
        """Per-message delay inflation (fresh stream).

        The returned callable maps a modeled delay to a jittered delay
        in ``[delay, delay * (1 + jitter_factor)]``.
        """
        if not self.jitters_delivery:
            return None
        rng = _derived_rng(self.jitter_seed, "jitter")
        factor = self.jitter_factor
        rand = rng.random
        return lambda delay: delay * (1.0 + rand() * factor)

    def install(self, sim: Any, network: Any) -> None:
        """Arm a freshly built simulator + network with this profile.

        Must run before the first event is scheduled (the simulator
        enforces this); each network constructor calls it immediately
        after creating its :class:`~repro.net.network.Network`.
        """
        breaker = self.tie_breaker()
        if breaker is not None:
            sim.install_tie_breaker(breaker)
        jitter = self.delivery_jitter()
        if jitter is not None:
            network.delivery_jitter = jitter

    # -- wire form --------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {}
        if self.tie_seed is not None:
            wire["tie_seed"] = self.tie_seed
        if self.jitter_seed is not None:
            wire["jitter_seed"] = self.jitter_seed
        if self.jitter_factor:
            wire["jitter_factor"] = self.jitter_factor
        return wire

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "ExploreProfile":
        known = {"tie_seed", "jitter_seed", "jitter_factor"}
        unknown = set(wire) - known
        if unknown:
            raise ConfigError(f"unknown explore profile fields: {sorted(unknown)}")
        return cls(**wire)


__all__ = ["ExploreProfile", "MAX_JITTER_FACTOR"]
