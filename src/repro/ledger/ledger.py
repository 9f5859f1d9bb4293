"""The per-application ledger at one organization.

Combines the three storage layers of Section 4/6:

* the append-only hash-chain log (all transactions, valid and invalid —
  invalid ones are kept "for bookkeeping purposes");
* the key-value database holding committed operations (the LevelDB
  role: faster than replaying the log on a cache miss);
* the in-memory CRDT value cache, updated on commit, which answers
  read APIs and gives read-your-writes consistency.

The cache can be disabled (``cache_enabled=False``) to reproduce the
well-known CRDT read-cost problem the cache exists to solve — every
read then replays the object's operations from the database, O(n) in
the number of operations. This is the E15 ablation.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, List, Sequence, Set

from repro.crdt.operation import Operation
from repro.crdt.store import CRDTStore
from repro.ledger.block import Block
from repro.ledger.hashchain import HashChainLog
from repro.ledger.kvstore import KVStore, WriteBatch


class Ledger:
    """Hash-chain log + operation database + CRDT value cache."""

    def __init__(self, cache_enabled: bool = True) -> None:
        self.log = HashChainLog()
        self.db = KVStore()
        self.cache_enabled = cache_enabled
        self._cache = CRDTStore()
        self._seen_transactions: Set[str] = set()
        self._valid_transactions: Set[str] = set()
        self._op_seq = itertools.count()

    # -- transaction bookkeeping ---------------------------------------

    def has_transaction(self, transaction_id: str) -> bool:
        """Whether this transaction was already appended (dedup check)."""
        return transaction_id in self._seen_transactions

    def is_valid_transaction(self, transaction_id: str) -> bool:
        return transaction_id in self._valid_transactions

    @property
    def transaction_count(self) -> int:
        return len(self._seen_transactions)

    @property
    def valid_transaction_count(self) -> int:
        return len(self._valid_transactions)

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
        only valid ones touch the database and the cache.

        A transaction previously logged as *invalid* may later commit
        as valid: two different signed transactions can share an id (a
        Byzantine client that reuses its clock, Section 8), and a valid
        one that arrives later by gossip still commits. The log then
        holds both the rejection and the commit, which is accurate
        bookkeeping. A transaction already committed as valid can never
        be committed again.
        """
        if transaction_id in self._valid_transactions:
            raise ValueError(f"transaction {transaction_id!r} committed twice")
        if transaction_id in self._seen_transactions and not valid:
            raise ValueError(
                f"transaction {transaction_id!r} already logged; only an upgrade to valid is allowed"
            )
        self._seen_transactions.add(transaction_id)
        block = self.log.append(payload, valid)
        if valid:
            self._valid_transactions.add(transaction_id)
            batch = WriteBatch()
            for operation in operations:
                seq = next(self._op_seq)
                batch.put(f"ops/{operation.object_id}/{seq:012d}", operation.to_wire())
            self.db.write(batch)
            if self.cache_enabled:
                self._cache.apply(operations)
        return block

    # -- reads -------------------------------------------------------------

    def operations_for(self, object_id: str) -> List[Operation]:
        """All committed operations for an object, in commit order."""
        return [
            Operation.from_wire(wire) for _, wire in self.db.scan_prefix(f"ops/{object_id}/")
        ]

    def read(self, object_id: str, path: Iterable[str] = ()) -> Any:
        """Resolved object value, from cache or by replaying the DB."""
        if self.cache_enabled:
            return self._cache.read(object_id, path)
        replay = CRDTStore()
        replay.apply(self.operations_for(object_id))
        return replay.read(object_id, path)

    def cached_object(self, object_id: str, type_name: str):
        """Direct access to a cached root CRDT (None if uncached)."""
        return self._cache.get(object_id, type_name)

    def state_snapshot(self) -> Any:
        """Canonical application state at this organization (ST_Oi).

        Rebuilt from ``dict(wire)`` copies of the database — no cache, no
        decode memo; organizations converged iff their snapshots are equal.
        """
        replay = CRDTStore()
        for _, wire in self.db.scan_prefix("ops/"):
            replay.apply([Operation.from_wire(dict(wire))])
        return replay.snapshot()

    def rebuild_cache(self) -> None:
        """Recompute the cache from the database (crash recovery)."""
        self._cache = CRDTStore()
        for _, wire in self.db.scan_prefix("ops/"):
            self._cache.apply([Operation.from_wire(wire)])

    def verify_integrity(self) -> None:
        """Verify the hash chain end to end."""
        self.log.verify()

    def transactions(self, valid_only: bool = False) -> List[Any]:
        """Payloads in the log, optionally only the valid ones."""
        return [block.payload for block in self.log if block.valid or not valid_only]

    # -- persistence -----------------------------------------------------

    def save(self, directory: str) -> None:
        """Persist the ledger (log + database) into ``directory``."""
        import json
        import os

        os.makedirs(directory, exist_ok=True)
        self.db.dump(os.path.join(directory, "db.json"))
        manifest = {
            "blocks": [block.to_wire() for block in self.log],
            "seen": sorted(self._seen_transactions),
            "valid": sorted(self._valid_transactions),
        }
        with open(os.path.join(directory, "log.json"), "w") as handle:
            json.dump(manifest, handle, separators=(",", ":"))

    @classmethod
    def restore(cls, directory: str, cache_enabled: bool = True) -> "Ledger":
        """Load a ledger written with :meth:`save`.

        The restored chain is re-verified end to end (tampering with
        the on-disk files is detected), and the CRDT cache is rebuilt
        from the database.
        """
        import json
        import os

        from repro.ledger.block import Block
        from repro.ledger.kvstore import KVStore

        ledger = cls(cache_enabled=cache_enabled)
        ledger.db = KVStore.load(os.path.join(directory, "db.json"))
        with open(os.path.join(directory, "log.json")) as handle:
            manifest = json.load(handle)
        for wire in manifest["blocks"]:
            ledger.log._blocks.append(Block.from_wire(wire))
        ledger.log.verify()
        ledger._seen_transactions = set(manifest["seen"])
        ledger._valid_transactions = set(manifest["valid"])
        # Continue operation-sequence numbering past the restored keys.
        count = sum(1 for _ in ledger.db.scan_prefix("ops/"))
        ledger._op_seq = itertools.count(count)
        if cache_enabled:
            ledger.rebuild_cache()
        return ledger


__all__ = ["Ledger"]
