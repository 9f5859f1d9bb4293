"""Multi-application channels: sharded per-channel state on one network.

Each channel binds one contract to its own ledger (hash chain,
committed set, CRDT cache) and watermark digest (repro.core.channel). These
tests cover the scoping rules, the one channel-keyed shape every
organization has (the default channel is an ordinary channel), and a
two-application end-to-end run.
"""

import pytest

from repro.bench.config import SYSTEMS, ChannelSpec, ExperimentConfig
from repro.bench.runner import NETWORKS, build_network, run_experiment
from repro.contracts.synthetic import SyntheticContract
from repro.contracts.voting import VotingContract
from repro.core.channel import DEFAULT_CHANNEL, ChannelState, scoped_contract_id
from repro.core.system import OrderlessChainNetwork
from repro.errors import ConfigError


def test_scoped_contract_id_rules():
    assert scoped_contract_id(DEFAULT_CHANNEL, "voting") == "voting"
    assert scoped_contract_id("ch0", "voting") == "ch0:voting"
    # Already-scoped ids pass through unchanged (idempotent).
    assert scoped_contract_id("ch0", "ch0:voting") == "ch0:voting"


def test_channel_state_starts_empty():
    channel = ChannelState("ch0")
    assert channel.channel_id == "ch0"
    assert channel.ledger.valid_transaction_count == 0
    assert channel.gossip_backlog == []
    assert channel.ledger.valid == {}
    assert len(channel.watermarks) == 0
    assert channel.snapshot is None


def test_default_channel_is_an_ordinary_channel():
    # An org with only the default channel is channel-keyed like any
    # other: its digest names the channel, its snapshot is keyed by
    # it, and ``org.ledger`` is just a read-only shorthand.
    net = OrderlessChainNetwork(ExperimentConfig(num_orgs=2, quorum=1, scale=1))
    net.install_contract(SyntheticContract)
    org = net.organizations[0]
    default = org.channels[DEFAULT_CHANNEL]
    assert isinstance(default, ChannelState)
    assert org.ledger is default.ledger
    with pytest.raises(AttributeError):
        org.ledger = default.ledger
    body, _size = org._digest_body_and_size(default)
    assert body["channel"] == DEFAULT_CHANNEL
    assert org.state_snapshot() == {DEFAULT_CHANNEL: default.ledger.state_snapshot()}


def test_create_channel_is_get_or_create():
    net = OrderlessChainNetwork(ExperimentConfig(num_orgs=2, quorum=1, scale=1))
    net.create_channel("ch0", SyntheticContract)
    net.create_channel("ch0")
    assert sorted(net.channel_ids) == ["ch0", "default"]
    org = net.organizations[0]
    assert "ch0:synthetic" in org.contracts
    assert org._contract_channel["ch0:synthetic"] == "ch0"


def test_two_channels_commit_independently():
    net = OrderlessChainNetwork(ExperimentConfig(num_orgs=3, quorum=2, seed=3, scale=1))
    net.create_channel("ch0", SyntheticContract)
    net.create_channel("ch1", lambda: VotingContract(parties_per_election=2))
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
        assert org.channels["ch0"].ledger.valid_transaction_count == 1
        assert org.channels["ch1"].ledger.valid_transaction_count == 1
        # The default channel carries nothing in a pure channel deployment.
        assert org.channels[DEFAULT_CHANNEL].ledger.valid_transaction_count == 0
        # Org-level counters are sums over the channel shards.
        assert org.committed_valid == 2
        assert org.gossip_commits == sum(c.gossip_commits for c in org.channels.values())
    net.verify_all_ledgers()  # raises on any channel's hash-chain break
    # Per-channel reads and snapshots see only their shard.
    snapshot = net.organizations[0].state_snapshot()
    assert set(snapshot) == {"ch0", "ch1", "default"}
    assert snapshot["default"] == {}


def test_ledger_keys_are_always_org_slash_channel():
    single = OrderlessChainNetwork(ExperimentConfig(num_orgs=2, quorum=1, scale=1))
    single.install_contract(SyntheticContract)
    assert sorted(single.ledgers()) == ["org0/default", "org1/default"]

    multi = OrderlessChainNetwork(ExperimentConfig(num_orgs=2, quorum=1, scale=1))
    multi.create_channel("ch0", SyntheticContract)
    keys = sorted(multi.ledgers())
    assert keys == ["org0/ch0", "org0/default", "org1/ch0", "org1/default"]


def test_build_network_wires_channels():
    config = ExperimentConfig(
        system="orderlesschain",
        duration=1.0,
        scale=50.0,
        channels=(ChannelSpec("ch0"), ChannelSpec("ch1", app="voting")),
    )
    net = build_network(config)
    assert sorted(net.channel_ids) == ["ch0", "ch1", "default"]
    org = net.organizations[0]
    assert "ch0:synthetic" in org.contracts
    assert "ch1:voting" in org.contracts


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
        arrival_rate=400.0,
        num_orgs=4,
        quorum=2,
        duration=4.0,
        scale=50.0,
        seed=0,
        check=True,
    )
    single = run_experiment(ExperimentConfig(channels=(ChannelSpec("ch0"),), **base))
    double = run_experiment(
        ExperimentConfig(
            arrival_rate=800.0,
            channels=(ChannelSpec("ch0"), ChannelSpec("ch1", app="voting")),
            **{k: v for k, v in base.items() if k != "arrival_rate"},
        )
    )
    assert single.check_report.ok
    assert double.check_report.ok
    assert set(double.extra["committed_by_channel"]) == {"ch0", "ch1"}
    assert all(count > 0 for count in double.extra["committed_by_channel"].values())
    assert set(double.extra["net_bytes_by_channel"]) >= {"ch0", "ch1"}
    # Fixed per-channel load: two channels commit more in aggregate.
    assert double.committed > single.committed
