"""The experiment runner: build a system, drive a workload, measure.

``run_experiment(config)`` dispatches on ``config.system``, builds the
corresponding network, submits the configured workload uniformly over
``config.duration`` simulated seconds, lets in-flight transactions
drain, and summarizes the recorder into an
:class:`~repro.bench.metrics.ExperimentResult`.

When ``config.trace`` or ``config.sample_interval`` is set (or an
:class:`repro.obs.Observability` is passed in), the run is traced: the
result's ``observability`` field carries the collector for export via
``repro.obs.chrome``. Tracing is passive and does not change simulated
results (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

from repro.baselines import BASELINES, BaselineSettings
from repro.bench.config import ExperimentConfig
from repro.bench.metrics import ExperimentResult, compute_result
from repro.bench.workload import AppWorkload, make_channel_workloads, make_workload
from repro.contracts.auction import AuctionContract
from repro.contracts.synthetic import SyntheticContract
from repro.contracts.voting import VotingContract
from repro.core.byzantine import ByzantineClientConfig
from repro.core.system import OrderlessChainNetwork, OrderlessChainSettings
from repro.errors import ConfigError
from repro.obs import Observability
from repro.sim.core import Simulator


def _drive(
    sim: Simulator,
    rng: random.Random,
    clients: Sequence[object],
    submit: Callable[[object, str], object],
    rate: float,
    duration: float,
    modify_ratio: float,
    label: str = "",
) -> None:
    """Submit transactions uniformly spaced at ``rate`` tps.

    ``label`` namespaces the driver's process names (one driver per
    channel in multichannel runs); the default empty label keeps the
    historical names.
    """
    if rate <= 0:
        raise ConfigError(f"arrival rate must be positive, got {rate}")
    interval = 1.0 / rate
    prefix = f"{label}." if label else ""

    def driver():
        index = 0
        while sim.now < duration:
            client = clients[index % len(clients)]
            kind = "modify" if rng.random() < modify_ratio else "read"
            sim.process(submit(client, kind), name=f"{prefix}txn{index}")
            index += 1
            yield sim.timeout(interval)

    sim.process(driver(), name=f"{prefix}workload-driver")


# -- OrderlessChain ----------------------------------------------------------


def _orderless_contract_factory(config: ExperimentConfig) -> Callable[[], object]:
    if config.app == "synthetic":
        return SyntheticContract
    if config.app == "voting":
        return lambda: VotingContract(parties_per_election=config.parties)
    return AuctionContract


def build_network(
    config: ExperimentConfig, obs: Optional[Observability] = None
) -> OrderlessChainNetwork:
    """Construct a fully wired OrderlessChain network for ``config``.

    The single build path shared by :func:`run_experiment` and the
    :mod:`repro.api` facade: settings via the canonical
    :meth:`~repro.core.OrderlessChainSettings.from_config` conversion,
    one channel (sharded ledger + contract) per
    :class:`~repro.bench.config.ChannelSpec` — or the single default
    -channel contract when none are configured — plus clients and any
    scheduled Byzantine windows. The returned network has not started:
    call ``net.start()`` (or hand it to a runner) to launch protocol
    loops.
    """
    if config.system != "orderlesschain":
        raise ConfigError(
            f"build_network constructs OrderlessChain networks; got "
            f"system={config.system!r} (use run_experiment for baselines)"
        )
    settings = OrderlessChainSettings.from_config(config)
    net = OrderlessChainNetwork(settings)
    if obs is not None:
        net.attach_observability(obs)
    if config.channels:
        # Multi-application deployment: one channel (sharded ledger +
        # contract) per spec; no contract on the default channel.
        for spec in config.channels:
            channel_config = config.with_(app=spec.app, channels=())
            net.create_channel(
                spec.channel_id, _orderless_contract_factory(channel_config)
            )
    else:
        net.install_contract(_orderless_contract_factory(config))
    total_clients = config.effective_clients
    byzantine_clients = round(config.byzantine_client_fraction * total_clients)
    byz_config = (
        ByzantineClientConfig(faults=frozenset(config.byzantine_client_faults))
        if byzantine_clients
        else None
    )
    for index in range(total_clients):
        net.add_client(byzantine=byz_config if index < byzantine_clients else None)
    for window in config.byzantine_org_windows:
        net.schedule_byzantine_window(
            net.org_ids[: window.count], window.start, window.end
        )
    return net


def _run_orderlesschain(
    config: ExperimentConfig,
    workload: AppWorkload,
    obs: Optional[Observability] = None,
    prepare: Optional[Callable[[object], None]] = None,
):
    net = build_network(config, obs)

    def _submit_with(generator, generator_rng):
        def submit(client, kind):
            if kind == "modify":
                contract_id, function, params = generator.orderless_modify(
                    generator_rng, client.client_id
                )
                return client.submit_modify(contract_id, function, params)
            contract_id, function, params = generator.orderless_read(
                generator_rng, client.client_id
            )
            return client.submit_read(contract_id, function, params)

        return submit

    if config.channels:
        # One independent driver + RNG stream per channel, all sharing
        # the client pool: mixed-application traffic at per-channel
        # rates over one network.
        channel_plans = [
            (spec, generator, rate, net.rng.stream(f"workload:{spec.channel_id}"))
            for spec, generator, rate in make_channel_workloads(config)
        ]
    else:
        workload_rng = net.rng.stream("workload")
    net.start()
    if prepare is not None:
        prepare(net)
    if config.channels:
        for spec, generator, rate, stream in channel_plans:
            _drive(
                net.sim,
                stream,
                net.clients,
                _submit_with(generator, stream),
                rate,
                config.duration,
                config.modify_ratio,
                label=spec.channel_id,
            )
    else:
        _drive(
            net.sim,
            workload_rng,
            net.clients,
            _submit_with(workload, workload_rng),
            config.effective_rate,
            config.duration,
            config.modify_ratio,
        )
    net.run(until=config.duration + config.drain)
    # The CRDT-cache lock section is CPU work executing on one core
    # (the paper attributes OrderlessChain's higher CPU utilization to
    # "applying the CRDT operations to the cache"), so it counts toward
    # the organization's CPU busy time.
    def _org_utilization(org):
        cores = org.cpu.capacity
        return min(
            1.0,
            org.cpu.utilization() + org.cache_lock.utilization() / cores,
        )

    utilization = sum(_org_utilization(org) for org in net.organizations) / len(
        net.organizations
    )
    extra = {"mean_org_cpu_utilization": utilization}
    if config.channels:
        # Per-channel attribution for the multichannel panel: distinct
        # valid commits per channel (max across orgs — every org
        # eventually holds the full channel set) and the network's
        # per-channel traffic accounting.
        extra["committed_by_channel"] = {
            spec.channel_id: max(
                org.channels[spec.channel_id].ledger.valid_transaction_count
                for org in net.organizations
            )
            for spec in config.channels
        }
        extra["net_bytes_by_channel"] = dict(net.network.bytes_by_channel)
    return net, extra


# -- baselines ------------------------------------------------------------------


def _baseline_submit(workload: AppWorkload, workload_rng: random.Random):
    def submit(client, kind):
        if kind == "modify":
            return client.submit_modify(workload.baseline_modify(workload_rng, client.client_id))
        return client.submit_read(workload.baseline_read(workload_rng, client.client_id))

    return submit


def run_baseline(
    config: ExperimentConfig,
    workload: AppWorkload,
    obs: Optional[Observability] = None,
    prepare: Optional[Callable[[object], None]] = None,
    **settings,
):
    """Build and drive the baseline named by ``config.system``.

    Internal to :mod:`repro.bench`: ``settings`` are extra
    :class:`~repro.baselines.BaselineSettings` fields that are
    deliberately not :class:`ExperimentConfig` fields — the Fabric
    orderer ablation passes ``orderer_type``; nothing else passes any.
    """
    net = BASELINES[config.system](
        BaselineSettings(
            num_orgs=config.num_orgs,
            quorum=config.quorum,
            app=config.app,
            seed=config.seed,
            perf=config.perf(),
            explore=config.explore,
            **settings,
        )
    )
    if obs is not None:
        net.attach_observability(obs)
    for _ in range(config.effective_clients):
        net.add_client()
    workload_rng = net.rng.stream("workload")
    _drive(
        net.sim,
        workload_rng,
        net.clients,
        _baseline_submit(workload, workload_rng),
        config.effective_rate,
        config.duration,
        config.modify_ratio,
    )
    # Driver first, then ``prepare`` (fault installation) — the reverse
    # of OrderlessChain's start -> prepare -> drive. Either order is part
    # of the deterministic event order the golden seeds pin.
    if prepare is not None:
        prepare(net)
    net.run(until=config.duration + config.drain)
    utilization = _mean_cpu_utilization(replica.cpu for replica in net.replicas)
    return net, {"mean_org_cpu_utilization": utilization}


def _mean_cpu_utilization(cpus) -> float:
    """Mean CPU utilization across a set of node CPU resources."""
    values = [cpu.utilization() for cpu in cpus]
    if not values:
        return 0.0
    return sum(values) / len(values)


def run_experiment(
    config: ExperimentConfig, obs: Optional[Observability] = None
) -> ExperimentResult:
    """Run one experiment and summarize its metrics.

    Pass ``obs`` to reuse a pre-built :class:`repro.obs.Observability`;
    otherwise one is created when the config asks for tracing or
    sampling.

    When ``config.fault_schedule`` is set, the schedule is installed
    before the run starts (fault injection is part of the deterministic
    event order); when ``config.check`` is set, the invariant oracles
    run at quiescence and the result carries their
    :class:`~repro.checkers.report.CheckReport` plus the run's
    deterministic fingerprint (docs/FAULTS.md).
    """
    from repro.checkers import run_checkers, run_fingerprint
    from repro.explore.plant import planted
    from repro.faults import install_schedule

    workload = make_workload(config)
    if obs is None and (config.trace or config.sample_interval > 0):
        obs = Observability(
            trace=config.trace, sample_interval=config.sample_interval
        )
    injector = None

    def prepare(net) -> None:
        nonlocal injector
        if config.fault_schedule is not None:
            injector = install_schedule(net, config.fault_schedule)

    # The planted-bug patch (a no-op for planted_bug=None) covers the
    # run AND the oracle pass: the checkers must see the world the
    # buggy code produced (e.g. state snapshots replayed through the
    # buggy CRDT merge). It is restored before returning, which also
    # protects reused sweep-pool workers from a leaked patch.
    runner = _run_orderlesschain if config.system == "orderlesschain" else run_baseline
    with planted(config.planted_bug):
        net, extra = runner(config, workload, obs, prepare)
        if injector is not None:
            injector.finalize()
        check_report = None
        fingerprint = None
        if config.check:
            check_report = run_checkers(net, schedule=config.fault_schedule)
            fingerprint = run_fingerprint(net)
    return compute_result(
        net.recorder,
        system=config.system,
        app=config.app,
        arrival_rate=config.arrival_rate,
        scale=config.scale,
        timeline_bucket=config.timeline_bucket,
        extra=extra,
        observability=obs,
        check_report=check_report,
        fingerprint=fingerprint,
    )


__all__ = ["build_network", "run_experiment"]
