"""Multi-application channels on one network.

A channel scopes a contract: its id becomes ``"<channel>:<contract>"``
and every object id the contract names, written or read, becomes
``"<channel>/<object>"`` (repro.core.contract). All channels share each
organization's one ledger. These tests cover the scoping rules, the
default channel's bare ids, disjoint state for two channels running the
same application, and a two-application end-to-end run.
"""

from collections import Counter

import pytest

from repro.bench.config import SYSTEMS, ChannelSpec, ExperimentConfig
from repro.bench.runner import NETWORKS, build_network, run_network
from repro.checkers import run_checkers
from repro.contracts.synthetic import SyntheticContract
from repro.contracts.voting import VotingContract
from repro.core.contract import DEFAULT_CHANNEL, ContractContext, scoped_contract_id
from repro.core.system import OrderlessChainNetwork
from repro.crdt.clock import OpClock
from repro.errors import ConfigError


def committed(net):
    return sum(1 for record in net.recorder.records.values() if record.committed_at is not None)


def commits_by_contract(ledger):
    """Valid commits per (channel-scoped) contract id, from the ledger."""
    return Counter(block.payload["proposal"]["contract_id"] for block in ledger.valid.values())


def test_scoped_contract_id_rules():
    assert scoped_contract_id(DEFAULT_CHANNEL, "voting") == "voting"
    assert scoped_contract_id("ch0", "voting") == "ch0:voting"
    # Already-scoped ids pass through unchanged (idempotent).
    assert scoped_contract_id("ch0", "ch0:voting") == "ch0:voting"


def test_channel_state_starts_empty():
    net = OrderlessChainNetwork(ExperimentConfig(num_orgs=2, quorum=1, scale=1))
    net.install_contract(SyntheticContract, channel="ch0")
    org = net.organizations[0]
    assert org.contracts["ch0:synthetic"].channel == "ch0"
    assert org.ledger.valid == {}
    assert org.gossip_backlog == []
    assert len(org.watermarks) == 0
    assert org.snapshot is None
    assert org.read_state("ch0/synthetic/obj0") is None


def test_default_channel_is_an_ordinary_channel():
    # A contract on the default channel shares the one ledger like any
    # other; only its contract and object ids stay bare.
    net = OrderlessChainNetwork(ExperimentConfig(num_orgs=2, quorum=1, scale=1))
    net.install_contract(SyntheticContract)
    org = net.organizations[0]
    contract = org.contracts["synthetic"]
    assert contract.channel == DEFAULT_CHANNEL
    context = ContractContext("c0", OpClock("c0", 1), channel=contract.channel)
    contract.execute(
        context, "modify", {"object_indexes": [0], "ops_per_object": 1, "crdt_type": "gcounter"}
    )
    assert [op.object_id for op in context.write_set()] == ["synthetic/obj0"]
    body, _size = org._digest_body_and_size()
    assert set(body) == {"watermarks"}
    assert org.state_snapshot() == org.ledger.state_snapshot()


def test_two_channels_commit_independently():
    net = OrderlessChainNetwork(ExperimentConfig(num_orgs=3, quorum=2, seed=3, scale=1))
    net.install_contract(SyntheticContract, channel="ch0")
    net.install_contract(lambda: VotingContract(parties_per_election=2), channel="ch1")
    client = net.add_client("c0")
    net.sim.process(
        client.submit_modify(
            "ch0:synthetic",
            "modify",
            {"object_indexes": [0], "ops_per_object": 1, "crdt_type": "gcounter"},
        )
    )
    net.sim.process(
        client.submit_modify("ch1:voting", "vote", {"party": "party0", "election": "e0"})
    )
    net.run(until=30.0)
    for org in net.organizations:
        assert commits_by_contract(org.ledger) == {"ch0:synthetic": 1, "ch1:voting": 1}
        assert org.committed_valid == 2
    net.verify_all_ledgers()  # raises on any hash-chain break
    # Each channel's objects live under its own prefix.
    snapshot = net.organizations[0].state_snapshot()
    assert "ch0/synthetic/obj0" in snapshot and "ch1/voting/e0/party0" in snapshot
    assert all(key.startswith(("ch0/synthetic/", "ch1/voting/")) for key in snapshot)


def test_same_app_on_two_channels_keeps_disjoint_state():
    config = ExperimentConfig(
        num_orgs=3,
        quorum=2,
        seed=4,
        scale=1,
        channels=(ChannelSpec("a", app="synthetic"), ChannelSpec("b", app="synthetic")),
    )
    net = build_network(config)
    net.start()
    client = net.clients[0]
    params = {"object_indexes": [0, 1], "ops_per_object": 1, "crdt_type": "gcounter"}
    reads = {}

    def scenario():
        # Only channel "a" is driven.
        for _ in range(3):
            ok = yield net.sim.process(client.submit_modify("a:synthetic", "modify", params))
            assert ok
        yield net.sim.timeout(5.0)
        for channel in ("a", "b"):
            reads[channel] = yield net.sim.process(
                client.submit_read(f"{channel}:synthetic", "read", {"object_indexes": [0, 1]})
            )

    net.sim.process(scenario())
    net.run(until=60.0)
    # Channel "a" reads its own counters; channel "b" reads empty
    # objects, although the same object names hold 3 in channel "a".
    assert reads["a"] and all(value == [3, 3] for value in reads["a"])
    assert reads["b"] and all(value == [None, None] for value in reads["b"])
    for org in net.organizations:
        assert set(org.ledger.ops) == {"a/synthetic/obj0", "a/synthetic/obj1"}
        assert org.read_state("b/synthetic/obj0") is None
        assert org.read_state("synthetic/obj0") is None


def test_ledger_keys_are_org_ids():
    single = OrderlessChainNetwork(ExperimentConfig(num_orgs=2, quorum=1, scale=1))
    single.install_contract(SyntheticContract)
    assert sorted(single.ledgers()) == ["org0", "org1"]

    multi = OrderlessChainNetwork(ExperimentConfig(num_orgs=2, quorum=1, scale=1))
    multi.install_contract(SyntheticContract, channel="ch0")
    multi.install_contract(SyntheticContract, channel="ch1")
    assert sorted(multi.ledgers()) == ["org0", "org1"]
    assert multi.ledgers()["org0"] is multi.organizations[0].ledger


def test_build_network_wires_channels():
    config = ExperimentConfig(
        system="orderlesschain",
        duration=1.0,
        scale=50.0,
        channels=(ChannelSpec("ch0"), ChannelSpec("ch1", app="voting")),
    )
    net = build_network(config)
    org = net.organizations[0]
    assert sorted(org.contracts) == ["ch0:synthetic", "ch1:voting"]
    assert org.contracts["ch1:voting"].channel == "ch1"


@pytest.mark.parametrize("system", SYSTEMS)
def test_build_network_builds_every_system(system):
    config = ExperimentConfig(system=system, app="voting", duration=1.0, scale=50.0)
    net = build_network(config)
    assert net.system == system
    assert len(net.clients) == config.effective_clients
    # Built, not run: no simulated time passed and nothing was submitted.
    assert net.sim.now == 0.0
    assert net.sim.processed_events == 0
    assert net.recorder.records == {}


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_network_is_built_from_the_config_itself(system):
    config = ExperimentConfig(system=system, app="voting", duration=1.0, scale=50.0)
    net = build_network(config)
    assert net.config is config
    assert net.perf == config.perf()
    # A network class refuses another system's config.
    other = next(name for name in SYSTEMS if name != system)
    with pytest.raises(ConfigError, match=f"builds {system!r}"):
        NETWORKS[system](config.with_(system=other))


def test_channel_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(
            system="fabric", channels=(ChannelSpec("ch0"),)
        )  # channels are OrderlessChain-only
    with pytest.raises(ConfigError):
        ExperimentConfig(
            system="orderlesschain",
            channels=(ChannelSpec("ch0"), ChannelSpec("ch0")),
        )  # duplicate ids
    with pytest.raises(ConfigError):
        ExperimentConfig(
            system="orderlesschain", channels=(ChannelSpec("ch0", rate_share=0.0),)
        )


def test_multichannel_run_reports_per_channel_commits_and_oracles():
    base = dict(
        system="orderlesschain",
        num_orgs=4,
        quorum=2,
        duration=4.0,
        scale=50.0,
        seed=0,
    )
    single = run_network(
        ExperimentConfig(arrival_rate=400.0, channels=(ChannelSpec("ch0"),), **base)
    )
    double = run_network(
        ExperimentConfig(
            arrival_rate=800.0,
            channels=(ChannelSpec("ch0"), ChannelSpec("ch1", app="voting")),
            **base,
        )
    )
    assert run_checkers(single).ok
    assert run_checkers(double).ok
    # Per-channel commits, counted from the ledger by contract scope
    # (max across orgs: every org eventually holds every channel's set).
    counts = [commits_by_contract(org.ledger) for org in double.organizations]
    by_channel = {scope: max(count[scope] for count in counts) for scope in counts[0]}
    assert set(by_channel) == {"ch0:synthetic", "ch1:voting"}
    assert all(count > 0 for count in by_channel.values())
    # Fixed per-channel load: two channels commit more in aggregate.
    assert committed(double) > committed(single)
