"""Anti-entropy digest scaling: bytes per round flat in run length.

Drives a small OrderlessChain network (built from its
``ExperimentConfig``) with frequent anti-entropy
rounds and a 100 % modify workload, so the committed set grows
steadily while digests keep flowing, and asserts
the *shape* claim behind the watermark digest: per-round digest bytes
are bounded by clients + gap ranges, independent of how many
transactions have committed. Modeled byte counts are deterministic in
simulated time, so unlike wall-clock numbers these assertions are
stable on loaded machines. (The full-id-set digest this replaced grew
7 926 -> 25 358 B/round over the same doubling; docs/PERFORMANCE.md
keeps that one-time record.)
"""

import pytest

from repro.api import ExperimentConfig, OrderlessChainNetwork
from repro.bench.workload import make_workload
from repro.contracts import SyntheticContract
from repro.core.organization import MSG_SYNC_DIGEST
from repro.core.perf import PerfModel

pytestmark = pytest.mark.perf_smoke

DURATIONS = (2.0, 4.0)


def digest_run(duration):
    config = ExperimentConfig(
        system="orderlesschain",
        app="synthetic",
        arrival_rate=2000.0,
        num_orgs=4,
        quorum=2,
        modify_ratio=1.0,
        duration=duration,
        scale=20.0,
        seed=0,
        # A digest round per simulated second.
        sync_interval=1.0,
    )
    net = OrderlessChainNetwork(config)
    net.install_contract(SyntheticContract)
    net.add_clients(config.effective_clients)
    workload = make_workload(config)
    rng = net.rng.stream("workload")

    def driver():
        index = 0
        while net.sim.now < config.duration:
            client = net.clients[index % len(net.clients)]
            net.sim.process(
                client.submit_modify(*workload.orderless_modify(rng, client.client_id))
            )
            index += 1
            yield net.sim.timeout(1.0 / config.effective_rate)

    net.sim.process(driver(), name="antientropy-driver")
    net.run(until=config.duration + config.drain)
    rounds = net.network.sent_by_type.get(MSG_SYNC_DIGEST, 0)
    return {
        "clients": config.effective_clients,
        "rounds": rounds,
        "digest_bytes_per_round": net.network.bytes_by_type.get(MSG_SYNC_DIGEST, 0)
        / max(1, rounds),
        "committed_txns": min(
            org.ledger.valid_transaction_count for org in net.organizations
        ),
    }


@pytest.fixture(scope="module")
def sweep():
    return [digest_run(duration) for duration in DURATIONS]


def test_sweeps_cover_growing_runs(sweep):
    committed = [run["committed_txns"] for run in sweep]
    assert committed == sorted(committed) and committed[-1] > committed[0]
    assert all(run["rounds"] > 0 for run in sweep)


def test_watermark_digest_bytes_flat_in_run_length(sweep):
    first, last = sweep[0], sweep[-1]
    # Committed history roughly doubles; the digest must not follow.
    assert last["committed_txns"] >= 1.8 * first["committed_txns"]
    assert last["digest_bytes_per_round"] <= 1.5 * first["digest_bytes_per_round"]


def test_watermark_bounded_by_clients_and_gaps_not_committed_count(sweep):
    perf = PerfModel()
    for run in sweep:
        # A generous envelope: every client present plus one gap range
        # per client. An explicit id list of the committed set blows
        # through this within a few simulated seconds.
        bound = perf.watermark_digest_bytes(run["clients"], run["clients"])
        assert perf.digest_base_bytes <= run["digest_bytes_per_round"] <= bound
        assert perf.id_list_bytes(run["committed_txns"]) > bound
