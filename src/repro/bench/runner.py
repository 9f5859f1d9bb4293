"""The experiment runner: build a system, drive a workload, measure.

``run_experiment(config)`` runs the network ``config.system`` names
(:func:`run_network`: one workload driver per channel submits uniformly
over ``config.duration`` simulated seconds, then in-flight transactions
drain) and summarizes its recorder into an
:class:`~repro.bench.metrics.ExperimentResult`. All five systems take
the same build, fault and drive steps; only the network class differs.

Pass an :class:`repro.obs.Observability` as ``obs`` to trace or sample
the run; the caller keeps it and exports ``obs.trace`` via
``repro.obs.chrome``. Tracing is passive and does not change simulated
results (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.baselines import BASELINES
from repro.bench.config import ChannelSpec, ExperimentConfig
from repro.bench.metrics import ExperimentResult, compute_result
from repro.bench.workload import ChannelWorkload, make_workload
from repro.contracts.auction import AuctionContract
from repro.contracts.synthetic import SyntheticContract
from repro.contracts.voting import VotingContract
from repro.core.byzantine import ByzantineClientConfig
from repro.core.contract import DEFAULT_CHANNEL
from repro.core.system import OrderlessChainNetwork
from repro.obs import Observability


def _channel_specs(config: ExperimentConfig) -> Tuple[ChannelSpec, ...]:
    """The deployment's channels; a single-application config is one
    implicit channel, the default one."""
    return config.channels or (ChannelSpec(DEFAULT_CHANNEL, app=config.app),)


def _drive(net, config: ExperimentConfig, label: str, rate: float) -> None:
    """Submit ``config.app``'s workload uniformly spaced at ``rate`` tps.

    ``label`` names an explicit channel: it scopes the workload's
    contract ids, its RNG stream (``workload:<label>``) and its process
    names (``<label>.``). The implicit default channel's empty label
    keeps the historical ``workload`` stream and names.
    """
    workload = make_workload(config)
    if label:
        workload = ChannelWorkload(label, workload)
    rng = net.rng.stream(f"workload:{label}" if label else "workload")
    orderless = net.system == OrderlessChainNetwork.system
    sim, clients = net.sim, net.clients
    interval = 1.0 / rate
    prefix = f"{label}." if label else ""

    def driver():
        index = 0
        while sim.now < config.duration:
            client = clients[index % len(clients)]
            kind = "modify" if rng.random() < config.modify_ratio else "read"
            submit = client.submit_modify if kind == "modify" else client.submit_read
            arguments = workload.arguments(kind, orderless, rng, client.client_id)
            sim.process(submit(*arguments), name=f"{prefix}txn{index}")
            index += 1
            yield sim.timeout(interval)

    sim.process(driver(), name=f"{prefix}workload-driver")


def _contract_factory(app: str, config: ExperimentConfig):
    if app == "synthetic":
        return SyntheticContract
    if app == "voting":
        return lambda: VotingContract(parties_per_election=config.parties)
    return AuctionContract


# System name (``ExperimentConfig.system``) → network class.
NETWORKS = {OrderlessChainNetwork.system: OrderlessChainNetwork, **BASELINES}


def build_network(config: ExperimentConfig, obs: Optional[Observability] = None):
    """Construct the fully wired, not yet started network of ``config.system``.

    The network is built from ``config`` itself. OrderlessChain also
    gets one contract per channel and any Byzantine windows; every
    system gets ``config.effective_clients`` clients.
    """
    net = NETWORKS[config.system](config)
    if obs is not None:
        net.attach_observability(obs)
    if config.system == OrderlessChainNetwork.system:
        for spec in _channel_specs(config):
            net.install_contract(_contract_factory(spec.app, config), channel=spec.channel_id)
    # Byzantine clients and windows are OrderlessChain knobs (the config
    # rejects them on a baseline).
    byzantine = ByzantineClientConfig(faults=frozenset(config.byzantine_client_faults))
    byzantine_clients = round(config.byzantine_client_fraction * config.effective_clients)
    for index in range(config.effective_clients):
        if index < byzantine_clients:
            net.add_client(byzantine=byzantine)
        else:
            net.add_client()
    for window in config.byzantine_org_windows:
        net.schedule_byzantine_window(net.node_ids[: window.count], window.start, window.end)
    return net


def run_network(config: ExperimentConfig, obs: Optional[Observability] = None):
    """Build, start, fault, drive and run ``config``; return the network.

    Faults are installed after ``start`` and before the drivers, on
    every system (docs/FAULTS.md). Each channel's driver gets its
    ``rate_share`` of the effective rate.
    """
    from repro.faults import install_schedule

    net = build_network(config, obs)
    net.start()
    injector = None
    if config.fault_schedule:
        injector = install_schedule(net, config.fault_schedule)
    specs = _channel_specs(config)
    total_share = sum(spec.rate_share for spec in specs)
    for spec in specs:
        _drive(
            net,
            config.with_(app=spec.app, channels=()),
            spec.channel_id if config.channels else "",
            config.effective_rate * spec.rate_share / total_share,
        )
    net.run(until=config.duration + config.drain)
    if injector is not None:
        injector.finalize()
    return net


def run_experiment(
    config: ExperimentConfig, obs: Optional[Observability] = None
) -> ExperimentResult:
    """Run one experiment and summarize its metrics.

    Pass an :class:`repro.obs.Observability` as ``obs`` to trace or
    sample the run; without one the run is untraced.

    When ``config.fault_schedule`` is not empty, it is installed
    before the drivers start (fault injection is part of the
    deterministic event order); when ``config.check`` is set, the
    invariant oracles run at quiescence and the result carries their
    :class:`~repro.checkers.report.CheckReport` plus the run's
    deterministic fingerprint (docs/FAULTS.md).
    """
    from repro.checkers import run_checkers, run_fingerprint
    from repro.explore.plant import planted

    # The planted-bug patch (a no-op for planted_bug=None) covers the
    # run AND the oracle pass: the checkers must see the world the
    # buggy code produced (e.g. state snapshots replayed through the
    # buggy CRDT merge). It is restored before returning, which also
    # protects reused sweep-pool workers from a leaked patch.
    with planted(config.planted_bug):
        net = run_network(config, obs)
        check_report = None
        fingerprint = None
        if config.check:
            check_report = run_checkers(net, schedule=config.fault_schedule)
            fingerprint = run_fingerprint(net)
    utilization = [net.node(node_id).utilization() for node_id in net.node_ids]
    extra = {"mean_org_cpu_utilization": sum(utilization) / len(utilization)}
    return compute_result(
        net.recorder,
        system=config.system,
        app=config.app,
        arrival_rate=config.arrival_rate,
        scale=config.scale,
        timeline_bucket=config.timeline_bucket,
        extra=extra,
        check_report=check_report,
        fingerprint=fingerprint,
    )


__all__ = ["build_network", "run_experiment", "run_network"]
