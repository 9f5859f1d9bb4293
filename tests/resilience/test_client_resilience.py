"""Client-level behavior of the adaptive resilience layer.

Hedged solicitation, retry retargeting, breaker-aware organization
selection, and the end-to-end happy path with resilience enabled —
fast enough for tier 1 (heavier chaos comparisons live under the
``resilience`` marker in tests/chaos/).
"""

import pytest

from repro.bench.config import ExperimentConfig
from repro.core import OrderlessChainNetwork
from repro.core.client import HEDGE, TIMEOUT
from repro.core.organization import MSG_PROPOSAL
from repro.contracts import VotingContract
from repro.resilience import BREAKER_OPEN, WORST_CASE_TIMEOUT
from repro.resilience.breaker import BREAKER_THRESHOLD


def make_net(num_orgs=4, quorum=2, seed=3, snapshot_interval=0.0):
    network = OrderlessChainNetwork(
        ExperimentConfig(
            num_orgs=num_orgs,
            quorum=quorum,
            seed=seed,
            snapshot_interval=snapshot_interval,
            scale=1,
        )
    )
    network.install_contract(lambda: VotingContract(parties_per_election=2))
    return network


def resilient_client(net, name="c0"):
    return net.add_client(name, config=net.config.with_(resilience=True, max_retries=2))


def open_breaker(client, org_id):
    for _ in range(BREAKER_THRESHOLD):
        client._breaker(org_id).record_failure()


def proposal_recipients(net, client):
    """The distinct organizations one modify sent its proposal to."""
    recipients = set()
    send = net.network.send

    def tapped(message):
        if message.msg_type == MSG_PROPOSAL:
            recipients.add(message.recipient)
        send(message)

    net.network.send = tapped
    net.sim.process(client.submit_modify("voting", "vote", {"party": "party0", "election": "e"}))
    net.run(until=10.0)
    assert len(net.recorder.successes()) == 1
    return recipients


class TestHedging:
    def test_hedge_adds_to_the_quorum(self):
        net = make_net(num_orgs=6)
        assert len(proposal_recipients(net, resilient_client(net))) == 2 + HEDGE

    def test_hedge_capped_at_org_count(self):
        net = make_net(num_orgs=4, quorum=4)
        assert len(proposal_recipients(net, resilient_client(net))) == 4

    def test_modify_solicits_more_than_quorum(self):
        net = make_net()
        client = resilient_client(net)
        net.sim.process(
            client.submit_modify("voting", "vote", {"party": "party0", "election": "e"})
        )
        net.run(until=10.0)
        assert len(net.recorder.successes()) == 1
        # Hedge=1 means q+1=3 organizations saw the proposal, and the
        # estimator collected RTT samples from the responses.
        assert client._rtt.samples >= 2


class TestRetargeting:
    def test_avoid_prefers_fresh_orgs(self):
        net = make_net()
        client = resilient_client(net)
        for _ in range(20):
            selected = client._select_orgs(2, avoid=["org0", "org1"])
            assert set(selected) == {"org2", "org3"}

    def test_avoid_falls_back_when_fresh_pool_short(self):
        net = make_net()
        client = resilient_client(net)
        selected = client._select_orgs(3, avoid=["org0", "org1"])
        assert len(selected) == len(set(selected)) == 3
        # Both fresh orgs are always included; the third is re-used.
        assert {"org2", "org3"} <= set(selected)


class TestBreakerSelection:
    def test_open_breaker_excluded_from_selection(self):
        net = make_net()
        client = resilient_client(net)
        open_breaker(client, "org0")
        assert client.breakers["org0"].state == BREAKER_OPEN
        for _ in range(20):
            assert "org0" not in client._select_orgs(3)

    def test_falls_back_when_too_many_breakers_open(self):
        net = make_net()
        client = resilient_client(net)
        for org in ("org0", "org1", "org2"):
            open_breaker(client, org)
        # Only one healthy org left but q=2 requested: selection must
        # not starve, so it falls back to the sick pool.
        assert len(client._select_orgs(2)) == 2


class TestAdaptiveDeadlines:
    def test_deadline_uses_legacy_timeouts_without_resilience(self):
        net = make_net()
        client = net.add_client("plain")
        assert [client._deadline(attempt) for attempt in range(3)] == [TIMEOUT] * 3

    def test_deadline_tightens_after_fast_rtt_samples(self):
        net = make_net()
        client = resilient_client(net)
        first = client._deadline(0)
        for _ in range(30):
            client._rtt.observe(0.05)
        # Deadlines adapt well below the 1 s initial timeout once the
        # network proves fast.
        assert client._deadline(0) < first

    def test_deadline_bounded_by_worst_case(self):
        net = make_net()
        client = resilient_client(net)
        client._rtt.observe(100.0)
        for attempt in range(6):
            assert client._deadline(attempt) <= WORST_CASE_TIMEOUT + 1e-9


class TestEndToEnd:
    def test_resilient_client_commits_and_reads(self):
        net = make_net(snapshot_interval=2.0)
        client = resilient_client(net)
        net.sim.process(
            client.submit_modify("voting", "vote", {"party": "party0", "election": "e"})
        )
        net.run(until=10.0)
        net.sim.process(
            client.submit_read(
                "voting", "read_vote_count", {"party": "party0", "election": "e"}
            )
        )
        net.run(until=20.0)
        assert len(net.recorder.successes()) == 2  # the modify and the read
        assert net.recorder.failures() == []
        # All contacted orgs answered, so every breaker stays closed.
        assert all(b.state == "closed" for b in client.breakers.values())
        # The snapshot loop ran on each organization.
        assert all(org.snapshots_taken > 0 for org in net.organizations)
