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
from repro.api import ChannelSpec, ExperimentConfig, OrderlessChainSettings

API_EXPORTS = {
    "ChannelSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "ExploreOutcome",
    "OrderlessChainNetwork",
    "OrderlessChainSettings",
    "build_network",
    "explore",
    "report",
    "run_experiment",
}

SETTINGS_FIELDS = {
    "cache_enabled",
    "client_config",
    "explore",
    "faults",
    "gossip_fanout",
    "gossip_interval",
    "gossip_ttl",
    "latency",
    "num_orgs",
    "perf",
    "quorum",
    "seed",
    "signature_scheme",
    "snapshot_interval",
    "sync_interval",
}

CONFIG_FIELDS = {
    "app",
    "arrival_rate",
    "auctions",
    "avoid_byzantine",
    "byzantine_client_faults",
    "byzantine_client_fraction",
    "byzantine_org_windows",
    "cache_enabled",
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
    "max_retries",
    "modify_ratio",
    "num_clients",
    "num_orgs",
    "obj_count",
    "object_pool",
    "ops_per_obj",
    "orderer_type",
    "org_weights",
    "parties",
    "planted_bug",
    "quorum",
    "resilience",
    "sample_interval",
    "scale",
    "seed",
    "snapshot_interval",
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


def test_settings_fields_match_snapshot():
    assert _field_names(OrderlessChainSettings) == SETTINGS_FIELDS


def test_config_fields_match_snapshot():
    assert _field_names(ExperimentConfig) == CONFIG_FIELDS


def test_channel_spec_fields_match_snapshot():
    assert _field_names(ChannelSpec) == CHANNEL_SPEC_FIELDS


def test_from_config_is_the_canonical_conversion():
    config = ExperimentConfig(
        system="orderlesschain",
        num_orgs=6,
        quorum=3,
        seed=7,
        gossip_interval=2.0,
        gossip_fanout=4,
        snapshot_interval=5.0,
        cache_enabled=False,
        max_retries=2,
        avoid_byzantine=True,
    )
    settings = OrderlessChainSettings.from_config(config)
    assert settings.num_orgs == 6
    assert settings.quorum == 3
    assert settings.seed == 7
    assert settings.gossip_interval == 2.0
    assert settings.gossip_fanout == 4
    assert settings.snapshot_interval == 5.0
    assert settings.cache_enabled is False
    assert settings.client_config.max_retries == 2
    assert settings.client_config.avoid_byzantine is True
    # Overrides win over the config-derived values.
    assert OrderlessChainSettings.from_config(config, sync_interval=0.25).sync_interval == 0.25


def test_importing_api_emits_no_deprecation_warnings():
    # The facade must not route through deprecated internals.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        import importlib

        importlib.reload(api)
