"""Byzantine behaviour configuration (Section 8).

Organizations: "Byzantine organizations may attempt to jeopardize the
system by either responding with wrong messages or avoiding responding
altogether"; in the evaluation they "randomly avoid responding to
clients or endorse the proposals incorrectly" and "randomly avoid
forwarding the transactions to other organizations".

Clients (four fault types of Section 8):
1. ``proposal_only`` — submit proposals but never commit (DDoS-style);
2. ``partial_commit`` — send the transaction to fewer than ``q``
   organizations (gossip still spreads it);
3. ``split_clock`` — send different logical timestamps to different
   organizations (endorsement write-sets mismatch, so no valid
   transaction can be assembled);
4. ``no_increment`` — never advance the Lamport clock;
plus ``tamper`` — modify the write-set after endorsement (signature
validation rejects the transaction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

VALID_CLIENT_FAULTS = frozenset(
    {"proposal_only", "partial_commit", "split_clock", "no_increment", "tamper"}
)


@dataclass(frozen=True)
class ByzantineOrgConfig:
    """How an organization misbehaves while its Byzantine window is on."""

    drop_probability: float = 0.5  # silently ignore a client request
    wrong_endorsement_probability: float = 0.5  # endorse with a corrupted write-set
    suppress_gossip_probability: float = 1.0  # do not forward transactions

    def __post_init__(self) -> None:
        for name in (
            "drop_probability",
            "wrong_endorsement_probability",
            "suppress_gossip_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


@dataclass(frozen=True)
class ByzantineClientConfig:
    """Which client fault(s) a Byzantine client exhibits."""

    faults: FrozenSet[str] = frozenset({"proposal_only"})
    fault_probability: float = 1.0  # chance a given transaction misbehaves

    def __post_init__(self) -> None:
        unknown = set(self.faults) - VALID_CLIENT_FAULTS
        if unknown:
            raise ValueError(
                f"unknown client faults {sorted(unknown)}; valid: {sorted(VALID_CLIENT_FAULTS)}"
            )
        if not self.faults:
            raise ValueError("a Byzantine client needs at least one fault")
        if not 0.0 <= self.fault_probability <= 1.0:
            raise ValueError(f"fault_probability must be a probability, got {self.fault_probability}")


__all__ = ["ByzantineOrgConfig", "ByzantineClientConfig", "VALID_CLIENT_FAULTS"]
