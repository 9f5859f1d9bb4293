"""CRDT substrate: clocks, operations, and the three supported CRDTs.

OrderlessChain supports grow-only counters (G-Counter), CRDT maps, and
multi-value registers (MV-Register) — Table 1 of the paper — with
nested composition (map values may be further CRDTs). All three are
operation-based: every operation carries its client's Lamport clock
``(client_id, counter)`` (Section 6), conflicts resolve by the
happened-before relation between those clocks (Figures 3 and 4), and
replicas converge by applying every committed operation in any order.

The package also contains the JSON CRDT document used by the
FabricCRDT baseline (Section 10 contrasts its state-based approach with
OrderlessChain's operation-based one).
"""

from repro.crdt.base import CRDT
from repro.crdt.clock import LamportClock, OpClock
from repro.crdt.crdtmap import CRDTMap
from repro.crdt.gcounter import GCounter
from repro.crdt.mvregister import MVRegister
from repro.crdt.operation import TYPE_GCOUNTER, TYPE_MAP, TYPE_MVREGISTER, Operation
from repro.crdt.store import CRDTStore

__all__ = [
    "CRDT",
    "CRDTMap",
    "CRDTStore",
    "GCounter",
    "LamportClock",
    "MVRegister",
    "OpClock",
    "Operation",
    "TYPE_GCOUNTER",
    "TYPE_MAP",
    "TYPE_MVREGISTER",
]
