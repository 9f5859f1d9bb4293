"""Determinism under faults: same seed, same schedule → same run.

Two layers of protection:

* **same-session determinism** — running the identical chaos scenario
  twice in one process must produce byte-identical fingerprints (the
  fault injector is part of the deterministic event order);
* **golden seeds** — the seed-1 fingerprint of the standard smoke
  scenario is pinned per system. These change *only* when a commit
  deliberately changes protocol behavior, message contents, or the
  fingerprint material itself; update them consciously, never to
  silence a red test (see docs/FAULTS.md).
"""

import pytest

from repro.checkers import run_fingerprint, state_fingerprints

from .harness import SYSTEMS, chaos_run

# Pinned seed-1 fingerprints of the standard chaos smoke scenario
# (4 orgs, 4 clients, smoke_schedule, run to t=60).
GOLDEN_SEED1 = {
    "orderlesschain": "3319f9663b1769fa7adef0953ac074d936a67988b4037004e35c011ea91bbda7",
    "fabric": "f0474caa064a560cbde1016a47a49f3280ba232f894f842166b9ac17e83775ce",
    "fabriccrdt": "c3d1bad5e94d89a8e1f83f402bed5410ba258627f2414b374ac0810cb65d34be",
    "bidl": "b97050af77f474cdd774e90cd98840766e009ff9c0e73d03aceeed5b42c2b4e7",
    "synchotstuff": "63e43aefd0e9482b9244aba8deb8d00fefd97f1f115703896355e1762009b344",
}


@pytest.mark.parametrize("system", SYSTEMS)
def test_same_seed_same_schedule_same_fingerprint(system):
    first, _ = chaos_run(system, seed=2)
    second, _ = chaos_run(system, seed=2)
    assert run_fingerprint(first) == run_fingerprint(second)
    assert state_fingerprints(first) == state_fingerprints(second)


@pytest.mark.parametrize("system", SYSTEMS)
def test_golden_seed_fingerprint(system):
    net, _ = chaos_run(system, seed=1)
    assert run_fingerprint(net) == GOLDEN_SEED1[system], (
        f"{system}: the chaos run's outcome changed. If this commit "
        "deliberately changes protocol or fingerprint behavior, re-pin "
        "GOLDEN_SEED1; otherwise this is a determinism regression."
    )


def test_different_seeds_differ():
    # Not a guarantee in principle, but with distinct RNG streams these
    # scenarios diverge in practice; catching fingerprints that ignore
    # the actual run (e.g. hashing a constant) is the point.
    a, _ = chaos_run("orderlesschain", seed=1)
    b, _ = chaos_run("orderlesschain", seed=2)
    assert run_fingerprint(a) != run_fingerprint(b)
