"""Serialization shared by the catalog-points fixture and its test.

``tests/report/data/catalog_points.json`` was dumped at the last commit
that still had one sweep function per panel (PR 17), by wrapping
``run_sweep`` / ``run_experiment`` so that no simulation ran. The
helpers here turn a config into the reviewable form stored there: only
the fields that differ from the dataclass defaults. The file keeps one
``[series, x, fields]`` point per line, so a deliberate grid change is
a one-line edit there.
"""

import dataclasses

from repro.bench.config import default_scale
from repro.core.perf import PerfModel


def _jsonable(value):
    if isinstance(value, PerfModel) and value == PerfModel().scaled(default_scale()):
        return "PerfModel().scaled(default_scale())"
    if hasattr(value, "to_wire"):
        return value.to_wire()
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def non_default_fields(instance) -> dict:
    """The fields of a config/settings dataclass that differ from a
    default-constructed one, JSON-ready.

    A differing *type* counts (``arrival_rate=3000`` against the
    default ``3000.0``): exported records carry the value as given, so
    an int that became a float would change rendered bytes.
    """
    default = type(instance)()
    delta = {}
    for f in dataclasses.fields(instance):
        value, base = getattr(instance, f.name), getattr(default, f.name)
        if value != base or type(value) is not type(base):
            delta[f.name] = _jsonable(value)
    return delta

