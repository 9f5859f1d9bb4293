"""Endorsement policies (Section 3).

An endorsement policy ``EP: {q of n}`` requires ``q`` of the network's
``n`` organizations to endorse *and* commit each transaction. For up to
``f`` Byzantine organizations the application is safe iff ``q >= f+1``
and live iff ``n - q >= f`` (Theorem 8.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import PolicyError


@dataclass(frozen=True)
class EndorsementPolicy:
    """``q of n``: the trust requirement of an application."""

    quorum: int
    total: int

    def __post_init__(self) -> None:
        if not 0 < self.quorum <= self.total:
            raise PolicyError(
                f"endorsement policy needs 0 < q <= n, got q={self.quorum}, n={self.total}"
            )

    def __str__(self) -> str:
        return f"{{{self.quorum} of {self.total}}}"

    # -- Theorem 8.1 -----------------------------------------------------

    @property
    def safety_tolerance(self) -> int:
        """Maximum Byzantine organizations under which safety holds (q-1)."""
        return self.quorum - 1

    @property
    def liveness_tolerance(self) -> int:
        """Maximum Byzantine organizations under which liveness holds (n-q)."""
        return self.total - self.quorum

    # -- checks used by the protocol --------------------------------------

    def satisfied_by(self, endorsement_count: int) -> bool:
        """Whether a set of (distinct, valid) endorsements meets the policy."""
        return endorsement_count >= self.quorum


__all__ = ["EndorsementPolicy"]
