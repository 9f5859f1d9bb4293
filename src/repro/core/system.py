"""Assemble a complete OrderlessChain network.

:class:`OrderlessChainNetwork` wires the simulator, RNG streams, the
certificate authority, the WAN, ``n`` organizations, and any number of
clients into a runnable system, and provides the helpers experiments
need: Byzantine window scheduling, convergence checks, final-state
access, and the node surface the fault injector and oracles drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core.byzantine import ByzantineClientConfig, ByzantineOrgConfig
from repro.core.channel import DEFAULT_CHANNEL
from repro.core.client import Client, ClientConfig
from repro.core.organization import Organization
from repro.core.perf import PerfModel
from repro.core.policy import EndorsementPolicy
from repro.core.recording import TransactionRecorder
from repro.errors import ConfigError
from repro.ledger.ledger import Ledger
from repro.net.latency import LatencyModel, LinkFaults
from repro.net.network import Network
from repro.crypto.identity import CertificateAuthority
from repro.sim.core import Simulator
from repro.sim.nondeterminism import ExploreProfile
from repro.sim.rng import RngRegistry


@dataclass
class OrderlessChainSettings:
    """Everything needed to build a network."""

    num_orgs: int = 4
    quorum: int = 2
    seed: int = 0
    signature_scheme: str = "simulated"
    perf: PerfModel = field(default_factory=PerfModel)
    latency: LatencyModel = field(default_factory=LatencyModel)
    faults: LinkFaults = field(default_factory=LinkFaults)
    gossip_interval: float = 1.0
    gossip_fanout: int = 1
    gossip_ttl: int = 3
    # Anti-entropy: a periodic digest exchange with a random peer, so
    # replicas reconcile even after push-gossip rounds are spent (e.g.
    # across a healed partition). 0 disables it.
    sync_interval: float = 5.0
    # Snapshot-based crash recovery (docs/RESILIENCE.md); 0 takes no
    # checkpoints, so a recovering organization announces its digest
    # to every peer instead of replaying a delta.
    snapshot_interval: float = 0.0
    cache_enabled: bool = True
    client_config: ClientConfig = field(default_factory=ClientConfig)
    # Controlled nondeterminism for schedule exploration
    # (repro.sim.nondeterminism): permute same-time event ties and/or
    # jitter message delivery. None keeps the historical, golden-seed
    # -pinned event order.
    explore: Optional[ExploreProfile] = None

    def __post_init__(self) -> None:
        if self.num_orgs < 1:
            raise ConfigError(f"need at least one organization, got {self.num_orgs}")
        if not 0 < self.quorum <= self.num_orgs:
            raise ConfigError(
                f"endorsement policy needs 0 < q <= n, got q={self.quorum}, n={self.num_orgs}"
            )
        if self.gossip_interval <= 0:
            raise ConfigError(f"gossip_interval must be > 0, got {self.gossip_interval}")
        if self.gossip_fanout < 0:
            raise ConfigError(f"gossip_fanout must be >= 0, got {self.gossip_fanout}")
        if self.gossip_ttl < 1:
            raise ConfigError(f"gossip_ttl must be >= 1, got {self.gossip_ttl}")
        for name in ("sync_interval", "snapshot_interval"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0 (0 disables), got {getattr(self, name)}")

    @classmethod
    def from_config(cls, config, **overrides) -> "OrderlessChainSettings":
        """The canonical ``ExperimentConfig`` → settings conversion.

        Every runner that builds an OrderlessChain network from a bench
        config goes through here (``repro.bench.runner``, the
        ``repro.api`` facade) — there is exactly one place that
        knows how the two configuration layers map onto each other.
        ``config`` is duck-typed (any object with the
        ``ExperimentConfig`` knob attributes works), which keeps the
        core layer free of a ``repro.bench`` import. ``overrides``
        replace individual settings fields after the mapping (e.g.
        ``sync_interval`` for benchmarks).
        """
        from repro.resilience import ResilienceConfig

        kwargs = dict(
            num_orgs=config.num_orgs,
            quorum=config.quorum,
            seed=config.seed,
            perf=config.perf(),
            gossip_interval=config.gossip_interval,
            gossip_fanout=config.gossip_fanout,
            snapshot_interval=config.snapshot_interval,
            cache_enabled=config.cache_enabled,
            explore=config.explore,
            client_config=ClientConfig(
                max_retries=config.max_retries,
                avoid_byzantine=config.avoid_byzantine,
                org_weights=config.org_weights,
                resilience=ResilienceConfig() if config.resilience else None,
            ),
        )
        kwargs.update(overrides)
        return cls(**kwargs)


class OrderlessChainNetwork:
    """A built network: simulator + organizations + clients."""

    system = "orderlesschain"  # the name the runner, faults and checkers use
    node_prefix = "org"

    def __init__(self, settings: OrderlessChainSettings) -> None:
        self.settings = settings
        self.sim = Simulator()
        self.rng = RngRegistry(seed=settings.seed)
        self.ca = CertificateAuthority(scheme=settings.signature_scheme)
        self.network = Network(
            self.sim,
            self.rng.stream("net"),
            latency=settings.latency,
            faults=settings.faults,
        )
        if settings.explore is not None:
            # Must happen before anything is scheduled (the simulator
            # enforces this) so every event carries a homogeneous key.
            settings.explore.install(self.sim, self.network)
        self.policy = EndorsementPolicy(settings.quorum, settings.num_orgs)
        self.recorder = TransactionRecorder()
        self.organizations: List[Organization] = []
        for index in range(settings.num_orgs):
            node_id = f"{self.node_prefix}{index}"
            identity = self.ca.enroll(node_id, "organization", seed=node_id.encode())
            org = Organization(
                sim=self.sim,
                network=self.network,
                identity=identity,
                ca=self.ca,
                policy=self.policy,
                settings=settings,
                rng=self.rng.stream(node_id),
                recorder=self.recorder,
            )
            self.organizations.append(org)
        self._nodes: Dict[str, Organization] = {org.org_id: org for org in self.organizations}
        self.node_ids = list(self._nodes)
        for org in self.organizations:
            org.set_peers(self.node_ids)
        self.clients: List[Client] = []
        self._started = False

    # -- setup -----------------------------------------------------------

    def install_contract(self, contract_factory, channel: str = DEFAULT_CHANNEL) -> None:
        """Install a contract on every organization.

        ``contract_factory`` is called once per organization so each
        holds its own instance (no shared mutable state). With a
        non-default ``channel`` the contract binds to that channel's
        sharded state and is addressed as ``"<channel>:<contract_id>"``
        (see :mod:`repro.core.channel`).
        """
        for org in self.organizations:
            org.install_contract(contract_factory(), channel=channel)

    def create_channel(self, channel_id: str, contract_factory=None) -> None:
        """Create a channel on every organization.

        Each organization grows an independent ledger, committed
        index, gossip backlog, and watermark digest for the channel;
        ``contract_factory`` (optional) is installed on it right away.
        Call before :meth:`run` for deterministic results.
        """
        for org in self.organizations:
            org.create_channel(channel_id)
        if contract_factory is not None:
            self.install_contract(contract_factory, channel=channel_id)

    @property
    def channel_ids(self) -> List[str]:
        if not self.organizations:
            return [DEFAULT_CHANNEL]
        return list(self.organizations[0].channels)

    def add_client(
        self,
        name: Optional[str] = None,
        config: Optional[ClientConfig] = None,
        byzantine: Optional[ByzantineClientConfig] = None,
    ) -> Client:
        index = len(self.clients)
        identifier = name or f"client{index}"
        identity = self.ca.enroll(identifier, "client", seed=identifier.encode())
        client = Client(
            sim=self.sim,
            network=self.network,
            identity=identity,
            policy=self.policy,
            org_ids=self.node_ids,
            perf=self.settings.perf,
            rng=self.rng.stream(f"client:{identifier}"),
            # Deadline jitter has its own stream: RngRegistry streams are
            # independent, so it never shifts the protocol draws.
            jitter_rng=self.rng.stream(f"resilience:{identifier}"),
            recorder=self.recorder,
            config=config or self.settings.client_config,
            byzantine=byzantine,
        )
        self.clients.append(client)
        return client

    def add_clients(self, count: int, **kwargs) -> List[Client]:
        return [self.add_client(**kwargs) for _ in range(count)]

    def attach_observability(self, obs) -> None:
        """Wire a :class:`repro.obs.Observability` into the network.

        Points the run's recorder (which every organization and client
        reports to) and the network at the trace, and — when sampling is
        enabled — registers per-node CPU/cache-lock probes plus network
        counters with the sampler. Call before :meth:`run`; safe to skip
        entirely, in which case the run is untraced.
        """
        self.recorder.trace = self.network.tracer = obs.recorder
        sampler = obs.bind(self.sim)
        if sampler is not None:
            for org in self.organizations:
                sampler.watch_resource(org.org_id, "cpu", org.cpu)
                sampler.watch_resource(org.org_id, "lock", org.cache_lock)
            sampler.watch_network(self.network)
            sampler.start()

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

    # -- run and inspect ----------------------------------------------------------

    def run(self, until: float) -> None:
        self.start()
        self.sim.run(until=until)

    def converged(self) -> bool:
        """Whether every organization holds the same application state."""
        snapshots = [org.state_snapshot() for org in self.organizations]
        return all(snapshot == snapshots[0] for snapshot in snapshots)

    def committed_everywhere(
        self, transaction_id: str, channel: str = DEFAULT_CHANNEL
    ) -> int:
        """How many organizations committed the transaction as valid."""
        return sum(
            org.channels[channel].ledger.is_valid_transaction(transaction_id)
            for org in self.organizations
        )

    def verify_all_ledgers(self) -> None:
        for org in self.organizations:
            for channel in org.channels.values():
                channel.ledger.verify_integrity()

    # -- the node surface: fault injection, oracles, fingerprints (docs/FAULTS.md)

    def node(self, node_id: str) -> Organization:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigError(
                f"{self.system}: unknown node {node_id!r}; valid: {sorted(self._nodes)}"
            ) from None

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
        # One ledger per channel shard, keyed "org/channel" (the run
        # fingerprint hashes these keys with the ledger heads).
        return {
            f"{org_id}/{channel_id}": channel.ledger
            for org_id, org in self._nodes.items()
            for channel_id, channel in sorted(org.channels.items())
        }

    def byzantine_ids(self) -> FrozenSet[str]:
        """Organizations configured to misbehave at any point in the run."""
        return frozenset(
            org_id for org_id, org in self._nodes.items() if org.byzantine is not None
        )

    def pending_grace(self) -> float:
        """Longest time a submitted transaction may legitimately stay
        pending; the liveness oracle flags only older unresolved ones.
        The client with the longest wait sets it."""
        return max((client.config.longest_pending() for client in self.clients), default=60.0)


__all__ = ["OrderlessChainNetwork", "OrderlessChainSettings"]
