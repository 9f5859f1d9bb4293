"""Unit tests of client internals."""

import pytest

from repro.bench.config import ExperimentConfig
from repro.core import OrderlessChainNetwork
from repro.core.client import Client, _Pending
from repro.core.transaction import Endorsement
from repro.contracts import VotingContract
from repro.crypto.identity import CertificateAuthority
from repro.sim import Simulator


@pytest.fixture
def net():
    network = OrderlessChainNetwork(ExperimentConfig(num_orgs=4, quorum=2, seed=2, scale=1))
    network.install_contract(lambda: VotingContract(parties_per_election=2))
    return network


class TestPending:
    def test_triggers_at_needed_count(self):
        sim = Simulator()
        pending = _Pending(sim, needed=2)
        pending.add("a", sender="s1")
        assert not pending.event.triggered
        pending.add("b", sender="s2")
        assert pending.event.triggered
        assert pending.responses == ["a", "b"]

    def test_duplicate_senders_ignored(self):
        sim = Simulator()
        pending = _Pending(sim, needed=2)
        pending.add("a", sender="s1")
        pending.add("a-again", sender="s1")
        assert not pending.event.triggered
        assert pending.responses == ["a"]


class TestMajorityWriteSet:
    def test_majority_group_selected(self):
        ca = CertificateAuthority()
        good_ws = [{"object_id": "o", "path": [], "value": 1, "value_type": "gcounter",
                    "clock": {"client_id": "c", "counter": 1}, "op_index": 0}]
        bad_ws = [dict(good_ws[0], value=999)]
        endorsements = [
            Endorsement.create(ca.enroll(f"org{i}", "organization"), "p:1", good_ws)
            for i in range(3)
        ] + [Endorsement.create(ca.enroll("org3", "organization"), "p:1", bad_ws)]
        majority = Client._majority_write_set(endorsements)
        assert len(majority) == 3
        assert all(e.write_set == good_ws for e in majority)

    def test_empty_endorsements(self):
        assert Client._majority_write_set([]) is None


class TestOrgSelection:
    def test_selects_quorum_size(self, net):
        client = net.add_client("c0")
        selected = client._select_orgs(2)
        assert len(selected) == 2
        assert set(selected) <= set(net.node_ids)

    def test_blacklist_avoided_when_possible(self, net):
        client = net.add_client("c1")
        client.blacklist = {"org0", "org1"}
        for _ in range(20):
            assert set(client._select_orgs(2)) == {"org2", "org3"}

    def test_falls_back_when_blacklist_too_large(self, net):
        client = net.add_client("c2")
        client.blacklist = {"org0", "org1", "org2"}
        selected = client._select_orgs(2)
        assert len(selected) == 2  # falls back to the full set

    def test_weighted_selection_prefers_heavy_orgs(self, net):
        config = net.config.with_(org_weights=(100.0, 1.0, 1.0, 1.0))
        client = net.add_client("c3", config=config)
        counts = {org: 0 for org in net.node_ids}
        for _ in range(200):
            for org in client._select_orgs(1):
                counts[org] += 1
        assert counts["org0"] > 100  # dominated by the heavy weight


class TestBlacklistSemantics:
    """Figure 8(b) avoidance: who counts as an offender."""

    def _endorsement(self, ca, org_name, write_set):
        return Endorsement.create(ca.enroll(org_name, "organization"), "p:1", write_set)

    def test_silent_and_disagreeing_orgs_both_blacklisted(self, net):
        ca = CertificateAuthority()
        good_ws = [{"object_id": "o", "path": [], "value": 1, "value_type": "gcounter",
                    "clock": {"client_id": "c", "counter": 1}, "op_index": 0}]
        bad_ws = [dict(good_ws[0], value=999)]
        agreeing = self._endorsement(ca, "orgA", good_ws)
        disagreeing = self._endorsement(ca, "orgB", bad_ws)
        client = net.add_client("c-bl")
        client.blacklist = set()
        # orgC was targeted but never responded.
        client._blacklist_offenders(
            ["orgA", "orgB", "orgC"], [agreeing, disagreeing], [agreeing]
        )
        assert client.blacklist == {"orgB", "orgC"}

    def test_no_majority_blacklists_every_target(self, net):
        client = net.add_client("c-bl2")
        client._blacklist_offenders(["orgA", "orgB"], [], None)
        assert client.blacklist == {"orgA", "orgB"}


class TestClockDiscipline:
    def test_clock_increments_per_transaction(self, net):
        client = net.add_client("c4")
        net.sim.process(
            client.submit_modify("voting", "vote", {"party": "party0", "election": "e"})
        )
        net.run(until=10.0)
        assert client.clock.counter == 1
        net.sim.process(
            client.submit_modify("voting", "vote", {"party": "party1", "election": "e"})
        )
        net.sim.run(until=20.0)
        assert client.clock.counter == 2

    def test_reads_also_advance_the_clock(self, net):
        client = net.add_client("c5")
        net.sim.process(
            client.submit_read("voting", "read_vote_count", {"party": "party0", "election": "e"})
        )
        net.run(until=10.0)
        assert client.clock.counter == 1
