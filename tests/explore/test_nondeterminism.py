"""Controlled nondeterminism: profiles perturb order, never determinism.

Each :class:`ExploreProfile` value is one perfectly reproducible run;
an inactive profile must be bit-for-bit identical to no profile at all
(the golden-seed tests pin that baseline).
"""

import pytest

from repro.bench.config import ExperimentConfig
from repro.bench.runner import run_network
from repro.errors import ConfigError, SimulationError
from repro.explore import run_case
from repro.sim.core import Simulator
from repro.sim.nondeterminism import MAX_JITTER_FACTOR, ExploreProfile

FAST = dict(
    app="voting",
    num_orgs=4,
    quorum=2,
    object_pool=16,
    elections=4,
    duration=6.0,
    scale=40.0,
    arrival_rate=400.0,
    check=True,
)


def test_profile_wire_round_trip():
    profile = ExploreProfile(tie_seed=7, jitter_seed=11, jitter_factor=0.25)
    assert ExploreProfile.from_wire(profile.to_wire()) == profile
    # Inactive profile serializes to nothing and comes back inactive.
    assert ExploreProfile.from_wire(ExploreProfile().to_wire()) == ExploreProfile()
    assert not ExploreProfile().active


def test_profile_rejects_unknown_wire_fields():
    with pytest.raises(ConfigError):
        ExploreProfile.from_wire({"tie_seed": 1, "spin_seed": 2})


def test_profile_validates_jitter():
    with pytest.raises(ConfigError):
        ExploreProfile(jitter_factor=MAX_JITTER_FACTOR + 0.1, jitter_seed=1)
    with pytest.raises(ConfigError):
        ExploreProfile(jitter_factor=0.5)  # factor without a seed


def test_jitter_never_delivers_early():
    jitter = ExploreProfile(jitter_seed=3, jitter_factor=0.5).delivery_jitter()
    for _ in range(200):
        delay = jitter(0.01)
        assert 0.01 <= delay <= 0.01 * 1.5


def commit_orders(config):
    """Each organization's ledger head: a digest of the order in which it
    committed. The run fingerprint holds state, which many orders share."""
    net = run_network(config)
    return [ledger.log.head_hash for _, ledger in sorted(net.ledgers().items())]


def test_tie_breaker_requires_pristine_simulator():
    sim = Simulator()
    sim.schedule(0.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.install_tie_breaker(lambda: 0)


def test_inactive_profile_matches_no_profile_bit_for_bit():
    base = ExperimentConfig(seed=5, **FAST)
    inactive = ExperimentConfig(seed=5, explore=ExploreProfile(), **FAST)
    assert run_case(base).fingerprint == run_case(inactive).fingerprint
    assert commit_orders(base) == commit_orders(inactive)


def test_same_profile_replays_identically():
    profile = ExploreProfile(tie_seed=42, jitter_seed=43, jitter_factor=0.3)
    case = ExperimentConfig(seed=5, explore=profile, **FAST)
    first = run_case(case)
    second = run_case(case)
    assert first.fingerprint == second.fingerprint
    assert first.failures == second.failures == ()


def test_profiles_explore_distinct_interleavings():
    # Different tie seeds must (at this operating point) produce
    # different event orders, visible as different commit orders —
    # otherwise the explorer is re-running one interleaving N times.
    orders = {
        tuple(
            commit_orders(
                ExperimentConfig(
                    seed=5,
                    explore=ExploreProfile(tie_seed=tie, jitter_seed=9, jitter_factor=0.4),
                    **FAST,
                )
            )
        )
        for tie in (1, 2, 3)
    }
    assert len(orders) > 1
