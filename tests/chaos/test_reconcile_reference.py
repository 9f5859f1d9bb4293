"""Watermark reconciliation against plain set arithmetic.

The watermark digest changes *how* replicas summarize committed
history, never *which* transactions a reconcile requests or pushes.
These chaos runs — the standard crash + partition-heal + loss smoke
schedule, plus a snapshot-recovery variant — wrap both sides of every
reconcile (``remote.difference(local)`` to pull, ``local.difference(
remote)`` to push, both :meth:`WatermarkDigest.difference`) and hold
each result to the reference: the set difference between the ids the
remote digest covers and the ids the organization's ledger has
committed.
That is exactly what a digest listing every id would have computed, so
the reference needs no second protocol implementation.
"""

import pytest

from repro.core.antientropy import WatermarkDigest
from repro.core.organization import Organization

from .harness import chaos_run

SEEDS = (1, 2, 3)
SCENARIOS = {
    # The smoke schedule covers crash-recover (resync path) and
    # partition-heal (anti-entropy repair) in one run.
    "partition-heal": {},
    # Crash-recover through the snapshot path: targeted digests to a
    # couple of peers instead of the resync broadcast.
    "snapshot-recovery": {"snapshot_interval": 2.0},
}
SIDES = ("pull", "push")


@pytest.fixture(scope="module")
def runs():
    """(scenario, seed) -> (net, [(side, result, reference), ...])."""
    out = {}
    orgs, records = [], []
    real_init, real_difference = Organization.__init__, WatermarkDigest.difference

    def registered(org, *args, **kwargs):
        real_init(org, *args, **kwargs)
        orgs.append(org)

    def recorded(digest, other):
        got = list(real_difference(digest, other))
        (local,) = [org for org in orgs if org.watermarks is digest or org.watermarks is other]
        committed = set(local.ledger.valid)
        if local.watermarks is other:
            records.append(("pull", got, set(digest.ids()) - committed))
        else:
            records.append(("push", got, committed - set(other.ids())))
        return iter(got)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Organization, "__init__", registered)
        patch.setattr(WatermarkDigest, "difference", recorded)
        for scenario, config_kwargs in SCENARIOS.items():
            for seed in SEEDS:
                del orgs[:], records[:]
                net, _ = chaos_run("orderlesschain", seed=seed, **config_kwargs)
                out[scenario, seed] = (net, list(records))
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_reconciles_match_set_arithmetic(runs, scenario, seed):
    net, records = runs[scenario, seed]
    assert records, "the run never reconciled"
    for side, got, reference in records:
        assert len(got) == len(set(got)), f"{side} repeated an id: {got}"
        assert set(got) == reference, side
    assert net.converged()
    if scenario == "snapshot-recovery":
        assert any(org.snapshots_taken > 0 for org in net.organizations)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_both_directions_carry_real_work(runs, scenario):
    # Guard against the reference check passing vacuously: across the
    # seeds, some reconcile must request ids and some must push
    # transactions.
    records = [record for seed in SEEDS for record in runs[scenario, seed][1]]
    for side in SIDES:
        assert any(got for name, got, _ in records if name == side), side
