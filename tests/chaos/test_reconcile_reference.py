"""Watermark reconciliation against plain set arithmetic.

The watermark digest changes *how* replicas summarize committed
history, never *which* transactions a reconcile requests or pushes.
These chaos runs — the standard crash + partition-heal + loss smoke
schedule, plus a snapshot-recovery variant — wrap both sides of every
reconcile (``CommittedIndex.missing_from`` / ``surplus_over``) and hold
each result to the reference: the set difference between the ids the
remote digest covers and the ids this channel has committed. That is
exactly what a digest listing every id would have computed, so the
reference needs no second protocol implementation.
"""

import pytest

from repro.core.antientropy import CommittedIndex

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
REFERENCES = {
    "missing_from": lambda local, remote: remote - local,
    "surplus_over": lambda local, remote: local - remote,
}


@pytest.fixture(scope="module")
def runs():
    """(scenario, seed) -> (net, [(side, result, reference), ...])."""
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        records = []
        for name, reference in REFERENCES.items():
            real = getattr(CommittedIndex, name)

            def recorded(index, remote, name=name, real=real, reference=reference):
                got = list(real(index, remote))
                records.append((name, got, reference(set(index.log), set(remote.ids()))))
                return iter(got)

            patch.setattr(CommittedIndex, name, recorded)
        for scenario, settings in SCENARIOS.items():
            for seed in SEEDS:
                del records[:]
                net, _ = chaos_run("orderlesschain", seed=seed, **settings)
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
    for side in REFERENCES:
        assert any(got for name, got, _ in records if name == side), side
