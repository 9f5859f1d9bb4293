"""Link latency and fault models."""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyModel:
    """Per-link delay: propagation + jitter + serialization.

    Defaults match the paper's NetEm configuration: 100 ms ping delay
    (one-way propagation 50 ms), 4 ms jitter, 100 Mb/s rate control.
    """

    one_way_delay: float = 0.050
    jitter_std: float = 0.004
    bandwidth_bytes_per_s: float = 100e6 / 8

    def delay_for(self, size_bytes: int, rng: random.Random) -> float:
        """Sampled one-way delay for a message of ``size_bytes``."""
        propagation = rng.gauss(self.one_way_delay, self.jitter_std)
        serialization = size_bytes / self.bandwidth_bytes_per_s
        return max(0.0, propagation) + serialization


@dataclass(frozen=True)
class LinkFaults:
    """Message-level faults of the Section 3 failure model."""

    loss_probability: float = 0.0
    duplicate_probability: float = 0.0
    corrupt_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_probability", "duplicate_probability", "corrupt_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


__all__ = ["LatencyModel", "LinkFaults"]
