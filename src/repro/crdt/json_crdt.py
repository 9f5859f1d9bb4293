"""State-based JSON CRDT (the FabricCRDT baseline's substrate).

FabricCRDT merges JSON CRDTs in the style of Kleppmann & Beresford:
"for every modification on FabricCRDT, the entire object stored on the
ledger must be retrieved and modified and then sent to organizations to
be merged with the existing objects. On FabricCRDT, the objects
gradually become large, negatively affecting the performance"
(Section 10).

This module implements that behaviour faithfully at the level that
matters for the evaluation: a document is the *set of all updates ever
applied* (append-only metadata, as in state-based JSON CRDTs, where
tombstones and version metadata are never garbage-collected), so the
state a FabricCRDT peer ships and merges grows linearly with the
document's modification history. A simulated peer applies each
block's updates to its own documents and charges the merge cost by
:meth:`JSONCRDTDocument.size`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

UpdateId = Tuple[str, int]  # (client_id, counter) — totally ordered for LWW


class JSONCRDTDocument:
    """A state-based, last-writer-wins JSON document CRDT."""

    def __init__(self) -> None:
        # update id -> (path, value). The id doubles as the LWW clock.
        self._updates: Dict[UpdateId, Tuple[Tuple[str, ...], Any]] = {}

    def update(self, path: Iterable[str], value: Any, client_id: str, counter: int) -> None:
        """Record a local modification at ``path``."""
        self._updates[(client_id, int(counter))] = (tuple(path), value)

    def size(self) -> int:
        """Number of retained updates — grows with every modification.

        This is the quantity the FabricCRDT baseline's cost model
        charges for on every retrieve-modify-merge cycle.
        """
        return len(self._updates)

    def value(self) -> Any:
        """Resolve the document to a plain nested dict.

        Concurrent writes to the same path resolve last-writer-wins on
        the totally ordered ``(counter, client_id)`` pair, which is the
        deterministic tiebreak JSON CRDT implementations use for
        register leaves.
        """
        winners: Dict[Tuple[str, ...], Tuple[Tuple[int, str], Any]] = {}
        for (client_id, counter), (path, value) in self._updates.items():
            stamp = (counter, client_id)
            current = winners.get(path)
            if current is None or stamp > current[0]:
                winners[path] = (stamp, value)
        document: Dict[str, Any] = {}
        for path in sorted(winners, key=lambda p: (len(p), p)):
            _, value = winners[path]
            if not path:
                continue
            node = document
            for key in path[:-1]:
                child = node.get(key)
                if not isinstance(child, dict):
                    child = {}
                    node[key] = child
                node = child
            leaf = path[-1]
            if value is None:
                node.pop(leaf, None)
            elif not isinstance(node.get(leaf), dict) or value is not None:
                node[leaf] = value
        return document

    def snapshot(self) -> Any:
        return sorted(
            (client_id, counter, list(path), value)
            for (client_id, counter), (path, value) in self._updates.items()
        )


__all__ = ["JSONCRDTDocument"]
