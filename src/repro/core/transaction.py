"""Protocol messages of the two-phase execute-commit protocol.

* :class:`Proposal` — phase 1: the client's request to execute a smart
  contract function (client id, contract id, function, parameters,
  client's Lamport clock).
* :class:`Endorsement` — an organization's signed write-set for a
  proposal.
* :class:`Transaction` — phase 2: the write-set plus the collected
  endorsements, signed by the client. Its wire form carries the
  write-set once; each endorsement travels as ``{org_id, signature}``
  over that write-set's digest.
* :class:`Receipt` — the signed hash of the block containing the
  committed transaction (``RCPT`` for valid, ``REJ`` for invalid).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Mapping, Tuple

from repro.crdt.clock import OpClock
from repro.crdt.operation import Operation
from repro.crypto.hashing import Wire, decode_once, sha256_hex
from repro.crypto.identity import Identity


def _str_field(wire: Mapping[str, Any], key: str) -> str:
    """``wire[key]``, which must be a str: a peer-supplied id of any
    other type would raise later, from a dict lookup in a handler,
    instead of failing the decode."""
    value = wire[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a str, not {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Proposal:
    """A transaction proposal ``TP_i`` (phase 1, step 1)."""

    client_id: str
    contract_id: str
    function: str
    params: Dict[str, Any]
    clock: OpClock

    @cached_property
    def proposal_id(self) -> str:
        """Unique id: the client id plus the client's Lamport counter.

        Built once per proposal object (shared network-wide by decode
        once), so every ledger's committed-set keys are one string.
        """
        return f"{self.client_id}:{self.clock.counter}"

    def to_wire(self) -> Dict[str, Any]:
        # Memoized like its three siblings: the client sends the same
        # immutable Wire to every organization it solicits.
        wire = self.__dict__.get("_wire_cache")
        if wire is None:
            wire = Wire(
                {
                    "client_id": self.client_id,
                    "contract_id": self.contract_id,
                    "function": self.function,
                    "params": self.params,
                    "clock": self.clock.to_wire(),
                }
            )
            object.__setattr__(self, "_wire_cache", wire)
        return wire

    @decode_once
    def from_wire(cls, wire: Mapping[str, Any]) -> "Proposal":
        return cls(
            client_id=_str_field(wire, "client_id"),
            contract_id=_str_field(wire, "contract_id"),
            function=_str_field(wire, "function"),
            params=dict(wire["params"]),
            clock=OpClock.from_wire(wire["clock"]),
        )


def write_set_digest(write_set: List[Dict[str, Any]]) -> str:
    """Hash of a write-set (the payload both parties sign)."""
    return sha256_hex({"write_set": write_set})


@dataclass(frozen=True)
class Endorsement:
    """An organization's signed response to a proposal (step 2).

    ``signature`` covers the proposal id and the write-set digest, so
    neither the client nor other organizations can tamper with the
    endorsed operations without invalidating it.
    """

    org_id: str
    proposal_id: str
    write_set: List[Dict[str, Any]]
    signature: str

    @staticmethod
    def signed_payload(proposal_id: str, write_set: List[Dict[str, Any]]) -> Dict[str, Any]:
        return Wire({"proposal_id": proposal_id, "digest": write_set_digest(write_set)})

    @classmethod
    def create(
        cls, identity: Identity, proposal_id: str, write_set: List[Dict[str, Any]]
    ) -> "Endorsement":
        payload = cls.signed_payload(proposal_id, write_set)
        return cls(
            org_id=identity.identifier,
            proposal_id=proposal_id,
            write_set=write_set,
            signature=identity.sign(payload),
        )

    def to_wire(self) -> Dict[str, Any]:
        # Memoized: a Wire is immutable, so the same one is handed out
        # every time and serializes once wherever it travels.
        wire = self.__dict__.get("_wire_cache")
        if wire is None:
            wire = Wire(
                {
                    "org_id": self.org_id,
                    "proposal_id": self.proposal_id,
                    "write_set": self.write_set,
                    "signature": self.signature,
                }
            )
            object.__setattr__(self, "_wire_cache", wire)
        return wire

    @decode_once
    def from_wire(cls, wire: Mapping[str, Any]) -> "Endorsement":
        # The wire write-set is shared, not copied: wire payloads are
        # immutable (tamper paths build new lists of dict(op) copies),
        # and sharing lets every later digest of this write-set join
        # the fragments its operations already carry.
        endorsement = cls(
            org_id=_str_field(wire, "org_id"),
            proposal_id=_str_field(wire, "proposal_id"),
            write_set=wire["write_set"],
            signature=wire["signature"],
        )
        if isinstance(wire, dict):
            object.__setattr__(endorsement, "_wire_cache", wire)
        return endorsement


@dataclass(frozen=True)
class Transaction:
    """An assembled transaction ``TS_i`` (phase 2, step 3)."""

    proposal: Proposal
    write_set: List[Dict[str, Any]]
    endorsements: Tuple[Endorsement, ...]
    client_signature: str

    @property
    def transaction_id(self) -> str:
        return self.proposal.proposal_id

    def digest(self) -> str:
        """Write-set digest, computed once per transaction object.

        Validation hashes the same write-set for the client signature
        and once per endorsement; caching keeps that O(1) in hashing.
        """
        cached = self.__dict__.get("_digest_cache")
        if cached is None:
            cached = write_set_digest(self.write_set)
            object.__setattr__(self, "_digest_cache", cached)
        return cached

    def signed_payloads(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """What the client and what every endorser signed (each class's
        ``signed_payload`` over :meth:`digest`), as validation verifies
        them: built, and so rendered, once per transaction object."""
        cached = self.__dict__.get("_payloads_cache")
        if cached is None:
            txn_id, digest = self.transaction_id, self.digest()
            cached = (
                Wire({"transaction_id": txn_id, "digest": digest}),
                Wire({"proposal_id": txn_id, "digest": digest}),
            )
            object.__setattr__(self, "_payloads_cache", cached)
        return cached

    @staticmethod
    def signed_payload(proposal_id: str, write_set: List[Dict[str, Any]]) -> Dict[str, Any]:
        return Wire({"transaction_id": proposal_id, "digest": write_set_digest(write_set)})

    @classmethod
    def assemble(
        cls,
        client_identity: Identity,
        proposal: Proposal,
        write_set: List[Dict[str, Any]],
        endorsements: List[Endorsement],
    ) -> "Transaction":
        """Create and client-sign the transaction (phase 2 entry)."""
        payload = cls.signed_payload(proposal.proposal_id, write_set)
        return cls(
            proposal=proposal,
            write_set=write_set,
            endorsements=tuple(endorsements),
            client_signature=client_identity.sign(payload),
        )

    def operations(self) -> Tuple[Operation, ...]:
        """Parse the write-set into CRDT operations (validates them).

        Parsed once per transaction object: validation and commit read
        the same tuple. A tampered write-set is a new list on a new
        transaction (immutable-wire convention), so it parses afresh.
        """
        cached = self.__dict__.get("_operations_cache")
        if cached is None:
            cached = tuple(Operation.from_wire(wire) for wire in self.write_set)
            object.__setattr__(self, "_operations_cache", cached)
        return cached

    def to_wire(self) -> Dict[str, Any]:
        # Memoized (and pre-seeded by from_wire): one transaction's wire
        # form is sent to q organizations, gossiped to the rest and
        # embedded in every block that logs it — the shared Wire is
        # serialized once for all of them.
        wire = self.__dict__.get("_wire_cache")
        if wire is None:
            wire = Wire(
                {
                    "proposal": self.proposal.to_wire(),
                    "write_set": self.write_set,
                    # Every endorser signed this write-set's digest,
                    # so an entry names the signer and the signature;
                    # from_wire rebuilds the rest from the transaction.
                    "endorsements": [
                        {"org_id": e.org_id, "signature": e.signature}
                        for e in self.endorsements
                    ],
                    "client_signature": self.client_signature,
                }
            )
            object.__setattr__(self, "_wire_cache", wire)
        return wire

    @decode_once
    def from_wire(cls, wire: Mapping[str, Any]) -> "Transaction":
        # Shared, not copied — same immutable-wire rule as
        # Endorsement.from_wire. Every endorsement is over the
        # transaction's own proposal and write-set (the same list
        # object); anything else an entry carries is ignored, so
        # validation can only ever verify against this write-set.
        proposal = Proposal.from_wire(wire["proposal"])
        write_set = wire["write_set"]
        transaction = cls(
            proposal=proposal,
            write_set=write_set,
            endorsements=tuple(
                Endorsement(
                    org_id=_str_field(entry, "org_id"),
                    proposal_id=proposal.proposal_id,
                    write_set=write_set,
                    signature=entry["signature"],
                )
                for entry in wire["endorsements"]
            ),
            client_signature=wire["client_signature"],
        )
        if isinstance(wire, dict):
            object.__setattr__(transaction, "_wire_cache", wire)
        return transaction

    def wire_size(self) -> int:
        """Approximate serialized size in bytes (drives link delay)."""
        return 400 + 140 * len(self.write_set) + 120 * len(self.endorsements)


@dataclass(frozen=True)
class Receipt:
    """``RCPT_i`` / ``REJ_i`` (step 4): signed hash of the block holding
    the transaction, marked valid or invalid."""

    org_id: str
    transaction_id: str
    block_hash: str
    valid: bool
    signature: str

    @staticmethod
    def signed_payload(transaction_id: str, block_hash: str, valid: bool) -> Dict[str, Any]:
        return {"transaction_id": transaction_id, "block_hash": block_hash, "valid": valid}

    @classmethod
    def create(
        cls, identity: Identity, transaction_id: str, block_hash: str, valid: bool
    ) -> "Receipt":
        payload = cls.signed_payload(transaction_id, block_hash, valid)
        return cls(
            org_id=identity.identifier,
            transaction_id=transaction_id,
            block_hash=block_hash,
            valid=valid,
            signature=identity.sign(payload),
        )

    def to_wire(self) -> Dict[str, Any]:
        return {
            "org_id": self.org_id,
            "transaction_id": self.transaction_id,
            "block_hash": self.block_hash,
            "valid": self.valid,
            "signature": self.signature,
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "Receipt":
        return cls(
            org_id=wire["org_id"],
            transaction_id=wire["transaction_id"],
            block_hash=wire["block_hash"],
            valid=bool(wire["valid"]),
            signature=wire["signature"],
        )


__all__ = [
    "Proposal",
    "Endorsement",
    "Transaction",
    "Receipt",
    "write_set_digest",
]
