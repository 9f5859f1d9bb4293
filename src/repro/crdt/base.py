"""Abstract CRDT interface.

Every CRDT in this package is *operation-based* (Section 5): replicas
converge because each applies every committed operation, in whatever
order gossip and anti-entropy deliver it, never by exchanging state.
Each type therefore satisfies:

* **commutativity** — applying a set of operations in any order yields
  the same state;
* **idempotence** — applying the same operation twice is a no-op
  (operation identifiers are tracked per object).

These are the delivery laws the property-based tests exercise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any


class CRDT(ABC):
    """Base class for the supported conflict-free replicated types."""

    type_name: str = "abstract"

    @abstractmethod
    def apply(self, value: Any, clock: Any, op_id: str) -> None:
        """Apply one modification operation to this node."""

    @abstractmethod
    def read(self) -> Any:
        """Current value (no side effects; Table 1's Read API)."""

    @abstractmethod
    def snapshot(self) -> Any:
        """A canonical, hashable representation of the full state.

        Two replicas are convergent iff their snapshots are equal.
        """


__all__ = ["CRDT"]
