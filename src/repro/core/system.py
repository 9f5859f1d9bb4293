"""Assemble a complete network from one :class:`~repro.bench.config.ExperimentConfig`.

:class:`NetworkShell` is what every built network shares, whatever the
system: the run's config and its scaled :class:`PerfModel` (computed
once), the simulator, the RNG registry, the WAN, the explore install,
the recorder, clients, the node lookup, ``run``, the convergence check
and the trace-and-sampler half of observability.
:class:`OrderlessChainNetwork` adds the certificate authority, ``n``
organizations and the helpers experiments need: Byzantine window
scheduling, final-state access, and the node surface the fault
injector and oracles drive. The baselines' shell
(:class:`repro.baselines.common.BaselineNetwork`) is the other
subclass.

A network reads the config directly; ``ExperimentConfig.__post_init__``
is the one place a run is validated. Only a structural minimum a
system owns (BIDL's ``n >= 4``, Sync HotStuff's ``n >= 2``) is checked
in that system's constructor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Sequence

from repro.core.byzantine import ByzantineClientConfig, ByzantineOrgConfig
from repro.core.client import Client, longest_pending
from repro.core.contract import DEFAULT_CHANNEL
from repro.core.organization import Organization
from repro.core.policy import EndorsementPolicy
from repro.core.recording import TransactionRecorder
from repro.crypto.identity import CertificateAuthority
from repro.errors import ConfigError
from repro.ledger.ledger import Ledger
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from repro.bench.config import ExperimentConfig


class NetworkShell:
    """The simulation shell every system's network is built on.

    A subclass names its ``system``, calls this constructor, then
    builds its nodes into ``_nodes`` (node id → node, each with a
    ``state_snapshot()``) and ``node_ids``, and registers its per-node
    probes in :meth:`_watch_nodes`.
    """

    system = ""  # the name the runner, faults and checkers use
    node_prefix = "org"
    _nodes: Dict[str, Any]
    node_ids: List[str]

    def __init__(self, config: ExperimentConfig) -> None:
        if config.system != self.system:
            raise ConfigError(
                f"{type(self).__name__} builds {self.system!r}, got a {config.system!r} config"
            )
        self.config = config
        self.perf = config.perf()
        self.sim = Simulator()
        self.rng = RngRegistry(seed=config.seed)
        self.network = Network(self.sim, self.rng.stream("net"))
        # Must happen before anything is scheduled (the simulator
        # enforces this) so every event carries a homogeneous key.
        config.explore.install(self.sim, self.network)
        self.recorder = TransactionRecorder()
        self.clients: List[Any] = []

    def attach_observability(self, obs) -> None:
        """Wire a :class:`repro.obs.Observability` into the network.

        Points the run's recorder (which every node and client reports
        to) and the network at the trace, and — when sampling is
        enabled — registers the system's per-node probes plus network
        counters with the sampler. Call before :meth:`run`; safe to
        skip entirely, in which case the run is untraced.
        """
        self.recorder.trace = self.network.tracer = obs.recorder
        sampler = obs.bind(self.sim)
        if sampler is not None:
            self._watch_nodes(sampler)
            sampler.watch_network(self.network)
            sampler.start()

    def _watch_nodes(self, sampler) -> None:
        """Register this system's per-node probes with ``sampler``."""
        raise NotImplementedError

    def start(self) -> None:
        """Launch background processes (none unless a system has some)."""

    def run(self, until: float) -> None:
        self.start()
        self.sim.run(until=until)

    def converged(self) -> bool:
        """Whether every node holds the same application state."""
        snapshots = [node.state_snapshot() for node in self._nodes.values()]
        return all(snapshot == snapshots[0] for snapshot in snapshots)

    def node(self, node_id: str) -> Any:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigError(
                f"{self.system}: unknown node {node_id!r}; valid: {sorted(self._nodes)}"
            ) from None


class OrderlessChainNetwork(NetworkShell):
    """A built network: simulator + organizations + clients."""

    system = "orderlesschain"
    _nodes: Dict[str, Organization]

    def __init__(self, config: ExperimentConfig) -> None:
        super().__init__(config)
        self.ca = CertificateAuthority()
        self.policy = EndorsementPolicy(config.quorum, config.num_orgs)
        self.organizations: List[Organization] = []
        for index in range(config.num_orgs):
            node_id = f"{self.node_prefix}{index}"
            identity = self.ca.enroll(node_id, "organization", seed=node_id.encode())
            org = Organization(
                sim=self.sim,
                network=self.network,
                identity=identity,
                ca=self.ca,
                policy=self.policy,
                config=config,
                perf=self.perf,
                rng=self.rng.stream(node_id),
                recorder=self.recorder,
            )
            self.organizations.append(org)
        self._nodes = {org.org_id: org for org in self.organizations}
        self.node_ids = list(self._nodes)
        for org in self.organizations:
            org.set_peers(self.node_ids)
        self._started = False

    # -- setup -----------------------------------------------------------

    def install_contract(self, contract_factory, channel: str = DEFAULT_CHANNEL) -> None:
        """Install a contract on every organization.

        ``contract_factory`` is called once per organization so each
        holds its own instance (no shared mutable state). With a
        non-default ``channel`` the contract is addressed as
        ``"<channel>:<contract_id>"`` and its object ids are prefixed
        with ``"<channel>/"`` (see :mod:`repro.core.contract`).
        """
        for org in self.organizations:
            org.install_contract(contract_factory(), channel=channel)

    def add_client(
        self,
        name: Optional[str] = None,
        config: Optional[ExperimentConfig] = None,
        byzantine: Optional[ByzantineClientConfig] = None,
    ) -> Client:
        """Enroll and register one client. It reads its protocol knobs
        from ``config``, the network's own by default; a different
        config puts, say, a careful client beside a naive one."""
        index = len(self.clients)
        identifier = name or f"client{index}"
        identity = self.ca.enroll(identifier, "client", seed=identifier.encode())
        client = Client(
            sim=self.sim,
            network=self.network,
            identity=identity,
            policy=self.policy,
            org_ids=self.node_ids,
            perf=self.perf,
            rng=self.rng.stream(f"client:{identifier}"),
            # Deadline jitter has its own stream: RngRegistry streams are
            # independent, so it never shifts the protocol draws.
            jitter_rng=self.rng.stream(f"resilience:{identifier}"),
            config=config or self.config,
            recorder=self.recorder,
            byzantine=byzantine,
        )
        self.clients.append(client)
        return client

    def add_clients(self, count: int, **kwargs) -> List[Client]:
        return [self.add_client(**kwargs) for _ in range(count)]

    def _watch_nodes(self, sampler) -> None:
        for org in self.organizations:
            sampler.watch_resource(org.org_id, "cpu", org.cpu)
            sampler.watch_resource(org.org_id, "lock", org.cache_lock)

    def start(self) -> None:
        """Start organization background processes (gossip)."""
        if self._started:
            return
        self._started = True
        for org in self.organizations:
            org.start()

    # -- Byzantine scheduling (Figure 8) ------------------------------------

    def schedule_byzantine_window(
        self,
        org_ids: Sequence[str],
        start: float,
        end: Optional[float],
        config: Optional[ByzantineOrgConfig] = None,
    ) -> None:
        """Make the named organizations Byzantine during [start, end)."""
        config = config or ByzantineOrgConfig()
        for org_id in org_ids:
            org = self.node(org_id)

            def activate(org=org) -> None:
                org.byzantine = config
                org.byzantine_active = True

            def deactivate(org=org) -> None:
                org.byzantine_active = False

            self.sim.schedule_at(start, activate)
            if end is not None:
                self.sim.schedule_at(end, deactivate)

    # -- inspect ------------------------------------------------------------

    def committed_everywhere(self, transaction_id: str) -> int:
        """How many organizations committed the transaction as valid."""
        return sum(org.ledger.is_valid_transaction(transaction_id) for org in self.organizations)

    def verify_all_ledgers(self) -> None:
        for org in self.organizations:
            org.ledger.verify_integrity()

    # -- the node surface: fault injection, oracles, fingerprints (docs/FAULTS.md)

    def crash(self, node_id: str) -> None:
        """Fail-stop one organization: it loses its in-memory state, and
        the network drops its sends and its in-flight inbox."""
        self.node(node_id).crash_local_state()
        self.network.crash(node_id)

    def recover(self, node_id: str) -> str:
        """Re-admit one organization, which then catches up through
        anti-entropy; returns the recovery mode (``resync`` or
        ``snapshot``, see :meth:`Organization.recover`)."""
        org = self.node(node_id)
        self.network.recover(node_id)
        return org.recover()

    def ledgers(self) -> Dict[str, Ledger]:
        # One ledger per organization, keyed by org id (the run
        # fingerprint hashes these keys with the ledger heads).
        return {org_id: org.ledger for org_id, org in self._nodes.items()}

    def byzantine_ids(self) -> FrozenSet[str]:
        """Organizations configured to misbehave at any point in the run."""
        return frozenset(
            org_id for org_id, org in self._nodes.items() if org.byzantine is not None
        )

    def pending_grace(self) -> float:
        """Longest time a submitted transaction may legitimately stay
        pending; the liveness oracle flags only older unresolved ones.
        The client with the longest wait sets it."""
        return max((longest_pending(client.config) for client in self.clients), default=60.0)


__all__ = ["NetworkShell", "OrderlessChainNetwork"]
