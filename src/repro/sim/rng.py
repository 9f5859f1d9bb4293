"""Named, seeded random streams.

Every stochastic component (network jitter, workload arrivals, client
choices, Byzantine coin flips) draws from its own named stream derived
from the experiment seed. Components therefore stay independent: adding
draws to one stream never perturbs another, which keeps experiments
comparable across configurations.

This is one half of the simulator's determinism guarantee (the other is
the event loop's ``(time, sequence)`` ordering — see
``repro.sim.core``): stream contents depend only on ``seed`` and the
stream's name, never on creation order. Observability hooks must not
draw from *any* stream — a recorder that consumed randomness would
shift every later draw on that stream and silently change the run it
claims to measure.
"""

from __future__ import annotations

import hashlib
import random


class RngRegistry:
    """A factory of independent ``random.Random`` streams.

    >>> registry = RngRegistry(seed=7)
    >>> a = registry.stream("net")
    >>> b = registry.stream("workload")
    >>> a is registry.stream("net")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]


__all__ = ["RngRegistry"]
