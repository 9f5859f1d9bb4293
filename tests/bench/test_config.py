"""Tests for experiment configuration."""

import pytest

from repro.bench.config import ByzantineWindow, ExperimentConfig
from repro.errors import ConfigError


def test_defaults_match_table_2():
    config = ExperimentConfig(scale=1)
    assert config.arrival_rate == 3000.0
    assert config.num_orgs == 16
    assert config.quorum == 4
    assert config.obj_count == 1
    assert config.ops_per_obj == 1
    assert config.crdt_type == "gcounter"
    assert config.modify_ratio == 0.5
    assert config.gossip_fanout == 1
    assert config.num_clients == 1000
    assert config.duration == 180.0


def test_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(system="ethereum")
    with pytest.raises(ConfigError):
        ExperimentConfig(app="poker")
    with pytest.raises(ConfigError):
        ExperimentConfig(quorum=99)
    with pytest.raises(ConfigError):
        ExperimentConfig(modify_ratio=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(scale=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(byzantine_client_fraction=2.0)


SMALL = dict(duration=2.0, scale=50.0)


@pytest.mark.parametrize(
    "fields",
    [
        # Knobs a system does not read are rejected, not ignored.
        dict(system="bidl", byzantine_client_fraction=1.0, byzantine_client_faults=("tamper",)),
        dict(system="fabric", byzantine_org_windows=(ByzantineWindow(3, 0, None),)),
        dict(system="bidl", orderer_type="raft"),
        dict(system="fabric", orderer_type="kafka"),
        # OrderlessChain-only knobs are rejected on every baseline.
        dict(system="fabric", resilience=True),
        dict(system="bidl", max_retries=5),
        dict(system="fabriccrdt", avoid_byzantine=True),
        dict(system="bidl", org_weights=(1.0,) * 16),
        dict(system="synchotstuff", snapshot_interval=2.0),
        dict(system="fabric", gossip_interval=2.0),
        dict(system="bidl", gossip_fanout=2),
        dict(system="fabriccrdt", gossip_ttl=5),
        dict(system="synchotstuff", sync_interval=1.0),
        dict(system="fabric", cache_enabled=False),
        # Values that failed every transaction or crashed mid-run.
        dict(crdt_type="bogus"),
        dict(ops_per_obj=0),
        dict(obj_count=0),
        dict(app="voting", parties=0),
        dict(duration=0.0),
        dict(drain=-5.0),
        # A negative retry budget shrank the liveness grace below zero.
        dict(max_retries=-1),
        dict(num_orgs=4, org_weights=(1.0, 1.0)),
        dict(num_orgs=4, org_weights=(1.0, 1.0, 1.0, float("nan"))),
        dict(num_orgs=4, org_weights=(1.0, 1.0, 1.0, 0.0)),
        dict(byzantine_org_windows=(ByzantineWindow(count=20, start=0.0, end=None),)),
        dict(byzantine_org_windows=(ByzantineWindow(count=-1, start=0.0, end=None),)),
        dict(byzantine_org_windows=(ByzantineWindow(count=1, start=-1.0, end=None),)),
        dict(byzantine_org_windows=(ByzantineWindow(count=1, start=2.0, end=2.0),)),
        dict(byzantine_client_fraction=0.5, byzantine_client_faults=("bogus",)),
        dict(byzantine_client_fraction=0.5, byzantine_client_faults=()),
        # Values the workload used to raise silently (to 1 election or
        # auction, 4 clients, a one-object pool) or rejected only once
        # the run started.
        dict(app="voting", elections=0),
        dict(app="auction", auctions=0),
        dict(num_clients=0),
        dict(object_pool=0),
        dict(arrival_rate=0.0),
        dict(arrival_rate=-100.0),
    ],
    ids=repr,
)
def test_unread_or_invalid_config_values_are_config_errors(fields):
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**SMALL, **fields})


def test_scale_divides_rates_and_clients():
    config = ExperimentConfig(arrival_rate=3000, num_clients=1000, scale=10)
    assert config.effective_rate == 300.0
    assert config.effective_clients == 100


def test_effective_clients_has_floor():
    config = ExperimentConfig(num_clients=10, scale=10)
    assert config.effective_clients >= 4


def test_perf_is_scaled():
    config = ExperimentConfig(scale=10)
    perf = config.perf()
    assert perf.endorse_base == pytest.approx(0.010)
    # Latency constants do not scale.
    assert perf.hotstuff_delta == pytest.approx(0.05)
    assert perf.fabric_batch_timeout == pytest.approx(0.25)


def test_with_replaces_fields():
    config = ExperimentConfig(scale=5)
    swept = config.with_(arrival_rate=500)
    assert swept.arrival_rate == 500
    assert swept.scale == 5
    assert config.arrival_rate == 3000


def test_byzantine_window_shape():
    window = ByzantineWindow(count=3, start=30.0, end=70.0)
    config = ExperimentConfig(byzantine_org_windows=(window,))
    assert config.byzantine_org_windows[0].count == 3
