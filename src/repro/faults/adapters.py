"""System adapters: one fault/checker surface over five simulators.

The fault engine and the invariant oracles need the same handful of
capabilities from every simulated system — enumerate the replica
nodes, crash/recover one, reach its CPU resource, snapshot its
application state. A :class:`SystemAdapter` is that surface; there are
two: :class:`OrderlessChainAdapter` (channel-keyed organizations with
hash-chain ledgers) and :class:`BaselineAdapter`, which serves all four
baselines through their shared skeleton
(:class:`repro.baselines.common.BaselineNetwork`: one replica list,
one snapshot method, one ordered-log repair path). :func:`adapter_for`
picks the right one for a built network object.

Crash/recover contract (shared by all adapters):

* ``crash`` marks the node down at the network (sends from/to it are
  dropped, and its in-flight inbox is lost — see
  ``repro.net.network``) and drops whatever purely in-memory protocol
  state the system would lose on a fail-stop crash.
* ``recover`` re-admits the node and triggers the system's own
  catch-up mechanism: OrderlessChain's push-pull anti-entropy
  (:meth:`repro.core.organization.Organization.resync`), or the
  ordered baselines' log fetch-from-source
  (:meth:`repro.baselines.common.InOrderApplier.request_catchup`).
  Recovery is therefore *protocol traffic*, subject to the same
  latencies, partitions, and loss as everything else.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional

from repro.errors import ConfigError

# Node-id prefix per system, used to synthesize default schedules.
_NODE_PREFIX = {
    "orderlesschain": "org",
    "fabric": "peer",
    "fabriccrdt": "peer",
    "bidl": "org",
    "synchotstuff": "org",
}


def default_node_ids(system: str, num_orgs: int) -> List[str]:
    """The replica node ids a system of ``num_orgs`` organizations uses."""
    prefix = _NODE_PREFIX.get(system)
    if prefix is None:
        raise ConfigError(f"unknown system {system!r}; valid: {sorted(_NODE_PREFIX)}")
    return [f"{prefix}{index}" for index in range(num_orgs)]


class SystemAdapter:
    """Uniform fault/checker surface over one built network object."""

    system = "abstract"

    def __init__(self, net: Any) -> None:
        self.net = net

    # -- shared plumbing (all five networks use these names) -----------

    @property
    def sim(self):
        return self.net.sim

    @property
    def network(self):
        return self.net.network

    @property
    def recorder(self):
        return self.net.recorder

    # -- to implement ---------------------------------------------------

    def node_ids(self) -> List[str]:
        raise NotImplementedError

    def crash(self, node_id: str) -> None:
        raise NotImplementedError

    def recover(self, node_id: str) -> None:
        raise NotImplementedError

    def cpu(self, node_id: str):
        raise NotImplementedError

    def state_snapshot(self, node_id: str) -> Any:
        """Canonical application state of one node (JSON-able)."""
        raise NotImplementedError

    # -- optional capabilities -----------------------------------------

    def ledgers(self) -> Dict[str, Any]:
        """node id -> hash-chain ledger, for systems that keep one."""
        return {}

    def committed_wires(self, node_id: str) -> Optional[Dict[str, Dict[str, Any]]]:
        """Committed-valid transaction wire forms (endorsement audit)."""
        return None

    def byzantine_ids(self) -> FrozenSet[str]:
        """Nodes configured to misbehave at any point in the run."""
        return frozenset()

    def pending_grace(self) -> float:
        """Longest time a submitted transaction may legitimately stay
        pending (all client timeouts and retries included); the
        liveness oracle flags only older unresolved transactions."""
        return 60.0

    def recovery_mode(self, node_id: str) -> str:
        """How ``recover`` catches the node up (``resync``,
        ``snapshot``, ``catchup``, ...), for fault-span attribution."""
        del node_id
        return "resync"

    def breaker_states(self) -> Dict[str, Dict[str, str]]:
        """client id -> {org id -> circuit-breaker state}, where the
        system runs the adaptive resilience layer (docs/RESILIENCE.md)."""
        return {}

    # -- helpers shared by subclasses ----------------------------------

    def _node(self, mapping: Dict[str, Any], node_id: str) -> Any:
        try:
            return mapping[node_id]
        except KeyError:
            raise ConfigError(
                f"{self.system}: unknown node {node_id!r}; valid: {sorted(mapping)}"
            ) from None


class OrderlessChainAdapter(SystemAdapter):
    system = "orderlesschain"

    def __init__(self, net: Any) -> None:
        super().__init__(net)
        self._orgs = {org.org_id: org for org in net.organizations}

    def node_ids(self) -> List[str]:
        return list(self._orgs)

    def crash(self, node_id: str) -> None:
        self._node(self._orgs, node_id).crash_local_state()
        self.network.crash(node_id)

    def recover(self, node_id: str) -> None:
        self.network.recover(node_id)
        self._node(self._orgs, node_id).recover()

    def recovery_mode(self, node_id: str) -> str:
        return self._node(self._orgs, node_id).last_recovery_mode or "resync"

    def breaker_states(self) -> Dict[str, Dict[str, str]]:
        states: Dict[str, Dict[str, str]] = {}
        for client in self.net.clients:
            if client.breakers:
                states[client.client_id] = {
                    org_id: breaker.state for org_id, breaker in sorted(client.breakers.items())
                }
        return states

    def cpu(self, node_id: str):
        return self._node(self._orgs, node_id).cpu

    def state_snapshot(self, node_id: str) -> Any:
        return self._node(self._orgs, node_id).state_snapshot()

    def ledgers(self) -> Dict[str, Any]:
        # One ledger per channel shard, keyed "org/channel" (the run
        # fingerprint hashes these keys with the ledger heads).
        return {
            f"{org_id}/{channel_id}": channel.ledger
            for org_id, org in self._orgs.items()
            for channel_id, channel in sorted(org.channels.items())
        }

    def committed_wires(self, node_id: str) -> Optional[Dict[str, Dict[str, Any]]]:
        org = self._node(self._orgs, node_id)
        # Transaction ids are network-wide unique (client id + Lamport
        # counter), so the policy-safety audit can scan a flat merge.
        merged: Dict[str, Dict[str, Any]] = {}
        for _channel_id, channel in sorted(org.channels.items()):
            merged.update(channel.valid_txn_wire)
        return merged

    def byzantine_ids(self) -> FrozenSet[str]:
        return frozenset(
            org_id for org_id, org in self._orgs.items() if org.byzantine is not None
        )

    def pending_grace(self) -> float:
        # A modify transaction can wait out the proposal and commit
        # timeouts once per attempt.
        config = None
        if self.net.clients:
            config = self.net.clients[0].config
        if config is None:
            return 60.0
        if config.resilience is not None:
            # Adaptive deadlines: each attempt of each phase is bounded
            # by the jitter-inclusive worst-case timeout.
            worst = config.resilience.worst_case_timeout
            return (config.max_retries + 1) * 2 * worst + max(worst, 1.0)
        per_attempt = config.proposal_timeout + config.commit_timeout
        return (config.max_retries + 1) * per_attempt + max(config.read_timeout, 1.0)


class BaselineAdapter(SystemAdapter):
    """The four ordered baselines, through their shared network shell."""

    def __init__(self, net: Any) -> None:
        super().__init__(net)
        self.system = net.system
        self._replicas = {replica.node_id: replica for replica in net.replicas}

    def node_ids(self) -> List[str]:
        return list(self._replicas)

    def crash(self, node_id: str) -> None:
        self._node(self._replicas, node_id)
        self.network.crash(node_id)

    def recover(self, node_id: str) -> None:
        replica = self._node(self._replicas, node_id)
        self.network.recover(node_id)
        # Fetch everything missed from the source's ordered log; the
        # request and the re-sends are ordinary network traffic.
        replica.applier.request_catchup()

    def cpu(self, node_id: str):
        return self._node(self._replicas, node_id).cpu

    def state_snapshot(self, node_id: str) -> Any:
        return self._node(self._replicas, node_id).snapshot()

    def pending_grace(self) -> float:
        return self.net.client_class.longest_pending() + 10.0


def adapter_for(net: Any) -> SystemAdapter:
    """Build the right adapter for a constructed network object."""
    if isinstance(net, SystemAdapter):
        return net
    # Imports are local so building one system never imports the rest.
    from repro.core.system import OrderlessChainNetwork

    if isinstance(net, OrderlessChainNetwork):
        return OrderlessChainAdapter(net)
    from repro.baselines.common import BaselineNetwork

    if isinstance(net, BaselineNetwork):
        return BaselineAdapter(net)
    raise ConfigError(f"no fault adapter for {type(net).__name__}")


__all__ = [
    "SystemAdapter",
    "OrderlessChainAdapter",
    "BaselineAdapter",
    "adapter_for",
    "default_node_ids",
]
