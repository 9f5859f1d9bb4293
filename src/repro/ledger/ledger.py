"""The per-application ledger at one organization.

Combines the storage layers of Section 4/6:

* the append-only hash-chain log (all transactions, valid and invalid —
  invalid ones are kept "for bookkeeping purposes");
* the committed set: each valid transaction's block by id
  (:attr:`Ledger.valid`; the block's ``payload`` is the transaction's
  wire) and each committed operation's wire by object id
  (:attr:`Ledger.ops`), both in commit order — the database role that
  state snapshots and crash-recovery cache rebuilds read;
* the in-memory CRDT value cache, updated on commit, which answers
  read APIs and gives read-your-writes consistency. It is the Section 6
  answer to the CRDT read-cost problem: a read never replays the
  object's committed operations, which would be O(n) in their number.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.crdt.operation import Operation
from repro.crdt.store import CRDTStore
from repro.ledger.block import Block
from repro.ledger.hashchain import HashChainLog


class Ledger:
    """Hash-chain log + committed set + CRDT value cache."""

    def __init__(self) -> None:
        self.log = HashChainLog()
        self._cache = CRDTStore()
        # Transaction id -> the block that commits it, in commit order
        # (``block.payload`` is the committed wire).
        self.valid: Dict[str, Block] = {}
        # Object id -> wires of its committed operations, in commit order.
        self.ops: Dict[str, List[Dict[str, Any]]] = {}
        # Id -> the block logging it as invalid, for ids logged only as
        # invalid (disjoint from ``valid``: an upgrade to valid moves
        # the id across).
        self._rejected: Dict[str, Block] = {}

    # -- transaction bookkeeping ---------------------------------------

    def has_transaction(self, transaction_id: str) -> bool:
        """Whether this transaction was already appended (dedup check)."""
        return transaction_id in self.valid or transaction_id in self._rejected

    def is_valid_transaction(self, transaction_id: str) -> bool:
        return transaction_id in self.valid

    def block_of(self, transaction_id: str) -> Optional[Block]:
        """The block holding this transaction: its valid commit if it
        has one, else its rejection (None if never logged)."""
        return self.valid.get(transaction_id) or self._rejected.get(transaction_id)

    @property
    def transaction_count(self) -> int:
        return len(self.valid) + len(self._rejected)

    @property
    def valid_transaction_count(self) -> int:
        return len(self.valid)

    # -- commit ----------------------------------------------------------

    def commit(
        self,
        transaction_id: str,
        operations: Sequence[Operation],
        payload: Any,
        valid: bool,
    ) -> Block:
        """Append a transaction to the log; apply its write-set if valid.

        Both valid and invalid transactions are chained into the log;
        only valid ones enter the committed set and the cache.

        A transaction previously logged as *invalid* may later commit
        as valid: two different signed transactions can share an id (a
        Byzantine client that reuses its clock, Section 8), and a valid
        one that arrives later by gossip still commits. The log then
        holds both the rejection and the commit, which is accurate
        bookkeeping. A transaction already committed as valid can never
        be committed again.
        """
        if transaction_id in self.valid:
            raise ValueError(f"transaction {transaction_id!r} committed twice")
        if transaction_id in self._rejected and not valid:
            raise ValueError(
                f"transaction {transaction_id!r} already logged; only an upgrade to valid is allowed"
            )
        block = self.log.append(payload, valid)
        if not valid:
            self._rejected[transaction_id] = block
            return block
        self._rejected.pop(transaction_id, None)
        self.valid[transaction_id] = block
        for operation in operations:
            self.ops.setdefault(operation.object_id, []).append(operation.to_wire())
        self._cache.apply(operations)
        return block

    # -- reads -------------------------------------------------------------

    def operations_for(self, object_id: str) -> List[Operation]:
        """All committed operations for an object, in commit order."""
        return [Operation.from_wire(wire) for wire in self.ops.get(object_id, ())]

    def read(self, object_id: str, path: Iterable[str] = ()) -> Any:
        """Resolved object value, from the cache."""
        return self._cache.read(object_id, path)

    def cached_object(self, object_id: str, type_name: str):
        """Direct access to a cached root CRDT (None if uncached)."""
        return self._cache.get(object_id, type_name)

    def replay(self) -> CRDTStore:
        """Application state at this organization (ST_Oi), rebuilt from
        ``dict(wire)`` copies of the committed operations — no cache, no
        decode memo, so an audit sees what the ledger holds."""
        replay = CRDTStore()
        for wires in self.ops.values():
            replay.apply([Operation.from_wire(dict(wire)) for wire in wires])
        return replay

    def state_snapshot(self) -> Any:
        """Canonical internal state of :meth:`replay` (every CRDT's metadata)."""
        return self.replay().snapshot()

    def rebuild_cache(self) -> None:
        """Recompute the cache from the committed operations (crash recovery)."""
        self._cache = CRDTStore()
        for object_id in self.ops:
            self._cache.apply(self.operations_for(object_id))

    def verify_integrity(self) -> None:
        """Verify the hash chain end to end."""
        self.log.verify()


__all__ = ["Ledger"]
