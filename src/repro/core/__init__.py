"""OrderlessChain core: the BFT coordination-free two-phase
execute-commit protocol (Section 4), organizations, clients, smart
contracts, endorsement policies, and Byzantine behaviours.
"""

from repro.core.byzantine import ByzantineClientConfig, ByzantineOrgConfig
from repro.core.client import Client
from repro.core.contract import ContractContext, SmartContract
from repro.core.organization import Organization
from repro.core.perf import PerfModel
from repro.core.policy import EndorsementPolicy
from repro.core.recording import TransactionRecorder
from repro.core.system import OrderlessChainNetwork
from repro.core.transaction import (
    Endorsement,
    Proposal,
    Receipt,
    Transaction,
)

__all__ = [
    "ByzantineClientConfig",
    "ByzantineOrgConfig",
    "Client",
    "ContractContext",
    "Endorsement",
    "EndorsementPolicy",
    "OrderlessChainNetwork",
    "Organization",
    "PerfModel",
    "Proposal",
    "Receipt",
    "SmartContract",
    "Transaction",
    "TransactionRecorder",
]
