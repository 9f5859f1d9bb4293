"""Every baseline does exactly the simulated work it did before.

The four baselines share one network shell (built from the run's
config), ordered-log source and client per pipeline shape; none of that may move a single
event. The fixture (see :mod:`tests.baselines.run_fixture`) was dumped
before the baselines were collapsed onto that skeleton.
"""

from .run_fixture import FIXTURE_PATH, collect, render


def test_baseline_runs_match_the_fixture():
    # Compared as JSON text, so an int that became a float (or a
    # reordered key) does not pass for the original.
    assert render(collect()) == FIXTURE_PATH.read_text()
