"""Chaos coverage of the adaptive resilience layer (docs/RESILIENCE.md).

Marked ``resilience`` (excluded from tier 1 by default, run via
``pytest -m resilience``): each test drives full chaos runs, so the
suite trades speed for end-to-end confidence in the retry loop, the
adaptive/fixed availability gap, snapshot recovery, and determinism.
"""

import pytest

from repro.bench import experiments
from repro.bench.config import ExperimentConfig
from repro.bench.runner import run_experiment
from repro.core import OrderlessChainNetwork
from repro.contracts import VotingContract
from repro.faults import FaultSchedule, default_node_ids, install_schedule, smoke_schedule
from repro.faults.schedule import FaultEvent
from repro.obs import Observability

pytestmark = pytest.mark.resilience


def _chaos(seed, resilience, snapshot_interval=0.0):
    return experiments.chaos_run(
        system="orderlesschain",
        seed=seed,
        resilience=resilience,
        max_retries=2,
        snapshot_interval=snapshot_interval,
    )


class TestRetryLoopUnderChaos:
    """Satellite: the retry loop actually runs under crash + partition."""

    @pytest.mark.parametrize("resilience", [False, True])
    def test_retries_happen_and_work_completes(self, resilience):
        net = OrderlessChainNetwork(
            ExperimentConfig(
                num_orgs=4, quorum=2, seed=5, scale=1, max_retries=2, resilience=resilience
            )
        )
        net.install_contract(lambda: VotingContract(parties_per_election=2))
        clients = [net.add_client(f"c{i}") for i in range(4)]
        # Two organizations down at once: with q=2 of 4, even a hedged
        # (q+1 target) attempt can land on a dead majority, so both the
        # fixed and the adaptive client must exercise their retry loop.
        schedule = FaultSchedule(
            events=(
                FaultEvent(at=1.0, kind="crash", node="org1"),
                FaultEvent(at=1.0, kind="crash", node="org2"),
                FaultEvent(at=4.0, kind="recover", node="org1"),
                FaultEvent(at=4.0, kind="recover", node="org2"),
            )
        )

        def workload(client, index, delay):
            yield net.sim.timeout(delay)
            yield net.sim.process(
                client.submit_modify(
                    "voting", "vote", {"party": f"party{index % 2}", "election": "e0"}
                )
            )

        # All submissions land inside the double-crash window.
        for index, client in enumerate(clients):
            net.sim.process(workload(client, index, 1.5 + 0.5 * index))
        injector = install_schedule(net, schedule)
        net.run(until=60.0)
        injector.finalize()

        total_retries = sum(r.retries for r in net.recorder.records.values())
        assert total_retries > 0, "chaos windows should force at least one retry"
        assert len(net.recorder.successes()) == 4  # retries recover all work

    def test_fixed_mode_chaos_run_is_oracle_green(self):
        result = _chaos(seed=1, resilience=False)
        assert result.check_report is not None and result.check_report.ok
        assert result.committed > 0


class TestAdaptiveBeatsFixed:
    """The PR's headline claim, as a regression test (one seed; the
    report panel sweeps three — see EXPERIMENTS.md)."""

    def test_adaptive_commits_strictly_more(self):
        fixed = _chaos(seed=1, resilience=False)
        adaptive = _chaos(seed=1, resilience=True, snapshot_interval=5.0)
        assert fixed.check_report.ok and adaptive.check_report.ok
        assert adaptive.committed > fixed.committed
        assert adaptive.failed < fixed.failed


class TestResilienceDeterminism:
    def test_same_seed_same_fingerprint(self):
        first = _chaos(seed=3, resilience=True, snapshot_interval=5.0)
        second = _chaos(seed=3, resilience=True, snapshot_interval=5.0)
        assert first.fingerprint is not None
        assert first.fingerprint == second.fingerprint

    def test_tracing_does_not_change_the_run(self):
        schedule = smoke_schedule(default_node_ids("orderlesschain", 4))
        base = ExperimentConfig(
            system="orderlesschain",
            app="voting",
            arrival_rate=400.0,
            num_orgs=4,
            quorum=2,
            duration=25.0,
            seed=4,
            fault_schedule=schedule,
            check=True,
            max_retries=2,
            resilience=True,
            snapshot_interval=5.0,
        )
        untraced = run_experiment(base)
        traced = run_experiment(base, obs=Observability(trace=True))
        assert untraced.fingerprint == traced.fingerprint
