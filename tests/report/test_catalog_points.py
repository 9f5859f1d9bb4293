"""Every panel hands the executor exactly the configs it did before.

The catalog refactor replaced one sweep function per panel by a
builder plus grids in the spec. The simulated inputs must not have
moved: for every spec, in full *and* quick mode, the ordered
``(series, x, config)`` points equal the fixture dumped from the
retired functions (see :mod:`tests.report.point_fixture`). This is the
only evidence for the full-mode grids, which nobody runs in CI.
"""

import json
from pathlib import Path

import pytest

from repro.report import all_specs, get_spec

from .point_fixture import non_default_fields

FIXTURE = json.loads((Path(__file__).parent / "data" / "catalog_points.json").read_text())
MODES = {"full": False, "quick": True}


@pytest.fixture(autouse=True)
def default_scale_env(monkeypatch):
    # The fixture was dumped at the default scale (non-default fields only).
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)


def test_fixture_covers_the_catalog():
    assert list(FIXTURE) == [spec.spec_id for spec in all_specs()]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.spec_id)
def test_points_match_the_retired_functions(spec, mode):
    points = spec.build(**spec.resolved_params(quick=MODES[mode]))
    got = [[series, x, non_default_fields(config)] for series, x, config in points]
    # Compared as JSON text, so 1000 and 1000.0 (which render
    # differently in records) do not pass for each other.
    assert json.dumps(got) == json.dumps(FIXTURE[spec.spec_id][mode])
