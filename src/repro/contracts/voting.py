"""The voting application (the paper's running example).

Each election has a set of candidate parties; each party is modeled as
a CRDT Map whose keys are voter identifiers and whose values are
MV-Registers holding the voter's Boolean vote for that party
(Figure 2(a)).

``Vote(voter, party, election)`` emits one operation per party: *true*
on the elected party's register and *false* on every other party's
register (Section 6). Because all of one voter's vote transactions
carry that voter's strictly increasing Lamport clock, a re-vote
happens-after and overwrites the previous vote on every party's map —
preserving the *maximally one vote per voter* invariant (Section 7,
Figure 5).
"""

from __future__ import annotations

from typing import Any, List

from repro.core.contract import (
    ContractContext,
    SmartContract,
    modify_function,
    read_function,
)
from repro.errors import ContractError


def party_object_id(election: str, party: str) -> str:
    """Ledger object id of one party's map in one election."""
    return f"voting/{election}/{party}"


class VotingContract(SmartContract):
    """Smart contract with ``Vote`` and ``ReadVoteCount`` functions."""

    contract_id = "voting"

    def __init__(self, parties_per_election: int = 8) -> None:
        self.parties_per_election = parties_per_election
        super().__init__()

    def party_names(self) -> List[str]:
        return [f"party{i}" for i in range(self.parties_per_election)]

    @modify_function
    def vote(self, ctx: ContractContext, party: str, election: str) -> None:
        """Vote for ``party``: n operations, one per party object."""
        parties = self.party_names()
        if party not in parties:
            raise ContractError(f"unknown party {party!r}")
        voter = ctx.client_id
        for candidate in parties:
            ctx.insert_value(
                party_object_id(election, candidate),
                key=voter,
                value=(candidate == party),
            )

    @read_function
    def read_vote_count(self, ctx: ContractContext, party: str, election: str) -> int:
        """Number of voters whose current register on ``party`` is true."""
        party_map = ctx.state.read(party_object_id(election, party))
        if not isinstance(party_map, dict):
            return 0
        count = 0
        for value in party_map.values():
            # A register may hold multiple concurrent values; the vote
            # counts only when it unambiguously reads true.
            if value is True:
                count += 1
        return count

    @read_function
    def read_vote(self, ctx: ContractContext, voter: str, party: str, election: str) -> Any:
        """The voter's register on one party (True/False/None/list)."""
        return ctx.state.read(party_object_id(election, party), (voter,))


__all__ = ["VotingContract", "party_object_id"]
