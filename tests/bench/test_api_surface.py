"""Public-API surface snapshot.

``repro.api`` is the stable facade (docs/API.md): its exported names
and the fields of the public configuration dataclasses are a contract.
These tests pin that surface so a breaking change — removing or
renaming an export, dropping or renaming a config field — fails tier-1
loudly instead of silently rippling into user code. *Adding* a name or
field is fine: update the snapshot here in the same change, which is
exactly the deliberate, reviewable act the snapshot exists to force.
"""

import dataclasses
import warnings

import repro.api as api
from repro.api import ChannelSpec, ExperimentConfig

API_EXPORTS = {
    "ChannelSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "ExploreOutcome",
    "OrderlessChainNetwork",
    "build_network",
    "explore",
    "report",
    "run_experiment",
}

CONFIG_FIELDS = {
    "app",
    "arrival_rate",
    "auctions",
    "avoid_byzantine",
    "byzantine_client_faults",
    "byzantine_client_fraction",
    "byzantine_org_windows",
    "channels",
    "check",
    "crdt_type",
    "drain",
    "duration",
    "elections",
    "explore",
    "fault_schedule",
    "gossip_fanout",
    "gossip_interval",
    "gossip_ttl",
    "max_retries",
    "modify_ratio",
    "num_clients",
    "num_orgs",
    "obj_count",
    "object_pool",
    "ops_per_obj",
    "org_weights",
    "parties",
    "planted_bug",
    "quorum",
    "resilience",
    "sample_interval",
    "scale",
    "seed",
    "snapshot_interval",
    "sync_interval",
    "system",
    "timeline_bucket",
    "trace",
}

CHANNEL_SPEC_FIELDS = {"app", "channel_id", "rate_share"}


def _field_names(cls):
    return {field.name for field in dataclasses.fields(cls)}


def test_api_exports_match_snapshot():
    assert set(api.__all__) == API_EXPORTS


def test_every_export_is_importable():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_config_fields_match_snapshot():
    assert _field_names(ExperimentConfig) == CONFIG_FIELDS


def test_channel_spec_fields_match_snapshot():
    assert _field_names(ChannelSpec) == CHANNEL_SPEC_FIELDS


def test_network_reads_its_knobs_from_the_config():
    weights = (1.0, 2.0, 1.0, 1.0, 1.0, 1.0)
    config = ExperimentConfig(
        system="orderlesschain",
        num_orgs=6,
        quorum=3,
        seed=7,
        gossip_interval=2.0,
        gossip_fanout=4,
        gossip_ttl=2,
        sync_interval=0.25,
        snapshot_interval=5.0,
        max_retries=2,
        avoid_byzantine=True,
        org_weights=weights,
        resilience=True,
        byzantine_client_fraction=0.5,
    )
    net = api.build_network(config)
    assert net.config is config
    assert net.perf == config.perf()
    assert net.rng.seed == 7
    assert str(net.policy) == "{3 of 6}"
    for org in net.organizations:
        # Gossip, anti-entropy and snapshot cadences are read from the
        # config itself; the cost model is the network's one copy.
        assert org.config is config
        assert org.perf is net.perf
    # Every client, honest or Byzantine, reads its retry, avoidance,
    # weighting and resilience knobs from the same config.
    assert {client.byzantine is None for client in net.clients} == {True, False}
    assert all(client.config is config for client in net.clients)


def test_importing_api_emits_no_deprecation_warnings():
    # The facade must not route through deprecated internals.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        import importlib

        importlib.reload(api)
