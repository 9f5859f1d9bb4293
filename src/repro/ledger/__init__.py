"""Ledger substrate: blocks, the append-only hash-chain log, and the
per-application ledger that records the committed set beside it
(Section 4: "the application's ledger on every organization consists
of two components: (1) an append-only hash-chain log and (2) a
database").
"""

from repro.ledger.block import Block
from repro.ledger.hashchain import HashChainLog
from repro.ledger.ledger import Ledger

__all__ = ["Block", "HashChainLog", "Ledger"]
