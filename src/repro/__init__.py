"""repro — a reproduction of OrderlessChain (Middleware 2023).

OrderlessChain is a CRDT-based, BFT, coordination-free permissioned
blockchain without a global order of transactions. This library
reimplements the system and everything it is evaluated against:

* :mod:`repro.sim` — deterministic discrete-event simulation kernel;
* :mod:`repro.crypto` — PKI, identities, signatures, hashing;
* :mod:`repro.crdt` — G-Counter, MV-Register, CRDT Map, clocks,
  Algorithm 1, and the state-based JSON CRDT of the FabricCRDT
  baseline;
* :mod:`repro.ledger` — hash-chain log, committed set, CRDT cache;
* :mod:`repro.net` — simulated WAN with loss/duplication/corruption;
* :mod:`repro.core` — the two-phase execute-commit protocol:
  organizations, clients, endorsement policies, smart contracts,
  Byzantine behaviours;
* :mod:`repro.contracts` — voting, auction, synthetic, supply chain,
  file storage, and federated-learning applications;
* :mod:`repro.baselines` — Fabric, FabricCRDT, BIDL, Sync HotStuff;
* :mod:`repro.bench` — workloads, metrics, and the experiment runner
  that regenerates the paper's tables and figures.

Quickstart::

    from repro import OrderlessChainNetwork
    from repro.bench.config import ExperimentConfig
    from repro.contracts import VotingContract

    net = OrderlessChainNetwork(ExperimentConfig(num_orgs=4, quorum=2, scale=1))
    net.install_contract(lambda: VotingContract(parties_per_election=2))
    voter = net.add_client("voter0")
    net.sim.process(voter.submit_modify(
        "voting", "vote", {"party": "party0", "election": "e0"}))
    net.run(until=30.0)
"""

from repro.core.byzantine import ByzantineClientConfig, ByzantineOrgConfig
from repro.core.client import Client
from repro.core.contract import (
    ContractContext,
    SmartContract,
    modify_function,
    read_function,
)
from repro.core.perf import PerfModel
from repro.core.policy import EndorsementPolicy
from repro.core.system import OrderlessChainNetwork

__version__ = "1.0.0"

__all__ = [
    "ByzantineClientConfig",
    "ByzantineOrgConfig",
    "Client",
    "ContractContext",
    "EndorsementPolicy",
    "OrderlessChainNetwork",
    "PerfModel",
    "SmartContract",
    "__version__",
    "modify_function",
    "read_function",
]
