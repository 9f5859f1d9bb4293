"""One benchmark per panel of the experiment catalog.

Every figure/table of the paper's Section 9 (and the beyond-the-paper
panels) is a spec in ``repro.report.catalog``; this file runs each one
through the ``run_spec`` fixture — full grid at the bench duration,
markdown table printed, the spec's registered shape checks asserted —
so pytest runs and the generated EXPERIMENTS.md can never assert
different things. Claims, grids and checks live in the catalog; select
panels by id, e.g. ``pytest benchmarks/bench_catalog.py -k "fig6b or
abl-gossip"``.
"""

import pytest

from repro.report import all_specs


@pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.spec_id)
def test_panel(spec, run_spec, bench_duration):
    duration = None
    if spec.kind == "timeline":
        # The Figure 8 windows sit at the paper's 30/70/110/150 s marks
        # rescaled to the run: below ~60 simulated seconds a window is
        # a bucket or two wide and the drop/recovery shape cannot show.
        duration = max(60.0, 4 * bench_duration)
    run_spec(spec, duration=duration)
