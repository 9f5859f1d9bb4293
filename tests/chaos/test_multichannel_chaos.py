"""Multichannel chaos smoke: oracles green under faults.

Two-application channel deployments run the standard crash + partition
+ loss smoke schedule. Both applications share each organization's one
ledger, so a green report means every application's replicas converged
and every hash chain verified; the per-channel commit counts, read from
the ledgers by contract scope, show that both channels made progress.
"""

import pytest

from repro.bench import experiments

from .harness import multichannel_chaos_commits

APP_PAIRS = (("voting", "auction"), ("synthetic", "voting"))
SEEDS = (1, 2)


@pytest.mark.parametrize("apps", APP_PAIRS, ids=["+".join(p) for p in APP_PAIRS])
@pytest.mark.parametrize("seed", SEEDS)
def test_multichannel_chaos_oracles_green(apps, seed, monkeypatch):
    result, by_channel = multichannel_chaos_commits(
        monkeypatch, apps=apps, duration=20.0, scale=50.0, seed=seed
    )
    report = result.check_report
    assert report is not None
    assert report.ok, "\n" + report.format()
    assert set(by_channel) == {f"ch0:{apps[0]}", f"ch1:{apps[1]}"}
    assert all(count >= 1 for count in by_channel.values())


@pytest.mark.chaos
def test_multichannel_chaos_with_resilience():
    result = experiments.multichannel_chaos(
        apps=("voting", "auction"), duration=20.0, scale=20.0, seed=1, resilience=True
    )
    assert result.check_report.ok, "\n" + result.check_report.format()


@pytest.mark.chaos
def test_multichannel_chaos_deterministic():
    first = experiments.multichannel_chaos(duration=20.0, scale=50.0, seed=3)
    second = experiments.multichannel_chaos(duration=20.0, scale=50.0, seed=3)
    assert first.fingerprint == second.fingerprint
    assert first.committed == second.committed
