"""Shared driver for the chaos tests: build any system, add a small
workload, run it under a fault schedule, and return the finished net.

The workload is deliberately plain — a handful of clients submitting
one modify transaction each at staggered times chosen to overlap the
smoke schedule's crash, partition, and loss windows — so every run
exercises recovery paths while staying fast enough for tier-1.
"""

from repro.bench.config import ExperimentConfig
from repro.faults import FaultSchedule, default_node_ids, install_schedule, smoke_schedule

SYSTEMS = ("orderlesschain", "fabric", "fabriccrdt", "bidl", "synchotstuff")


def build_system(system: str, seed: int, num_orgs: int = 4, quorum: int = 2, **config_kwargs):
    from repro.bench.runner import NETWORKS

    config = ExperimentConfig(
        system=system,
        app="voting",
        num_orgs=num_orgs,
        quorum=quorum,
        seed=seed,
        scale=1,
        **config_kwargs,
    )
    net = NETWORKS[system](config)
    if system == "orderlesschain":
        from repro.contracts import VotingContract

        net.install_contract(lambda: VotingContract(parties_per_election=2))
    return net


def add_workload(net, system: str, clients: int = 4):
    """Staggered single votes, spread across the fault windows."""

    def orderless(client, index, delay):
        yield net.sim.timeout(delay)
        yield net.sim.process(
            client.submit_modify(
                "voting", "vote", {"party": f"party{index % 2}", "election": "e0"}
            )
        )

    def baseline(client, index, delay):
        yield net.sim.timeout(delay)
        yield net.sim.process(
            client.submit_modify(
                {"voter": client.client_id, "party": f"p{index % 2}", "election": "e0"}
            )
        )

    workload = orderless if system == "orderlesschain" else baseline
    for index in range(clients):
        client = net.add_client(f"c{index}")
        net.sim.process(workload(client, index, 0.2 + 2.5 * index))


def chaos_run(
    system: str,
    seed: int,
    schedule: FaultSchedule = None,
    until: float = 60.0,
    num_orgs: int = 4,
    clients: int = 4,
    **config_kwargs,
):
    """One full chaos run; returns ``(net, schedule)`` after the drain.

    Extra keyword arguments reach the ``ExperimentConfig`` — e.g.
    ``snapshot_interval`` for snapshot-based recovery, which the config
    rejects on a baseline.
    """
    if schedule is None:
        schedule = smoke_schedule(default_node_ids(system, num_orgs))
    net = build_system(system, seed, num_orgs=num_orgs, **config_kwargs)
    add_workload(net, system, clients=clients)
    injector = install_schedule(net, schedule)
    net.run(until=until)
    injector.finalize()
    return net, schedule


def multichannel_chaos_commits(monkeypatch, **kwargs):
    """``experiments.multichannel_chaos(**kwargs)``, and the valid
    commits per channel-scoped contract id counted from the run's
    ledgers (max across organizations: every organization eventually
    holds every channel's committed set)."""
    from collections import Counter

    from repro.bench import experiments, runner

    nets = []
    real_run_network = runner.run_network

    def recording(config, obs=None):
        nets.append(real_run_network(config, obs))
        return nets[-1]

    monkeypatch.setattr(runner, "run_network", recording)
    result = experiments.multichannel_chaos(**kwargs)
    (net,) = nets
    counts = [
        Counter(block.payload["proposal"]["contract_id"] for block in org.ledger.valid.values())
        for org in net.organizations
    ]
    return result, {scope: max(count[scope] for count in counts) for scope in set().union(*counts)}
