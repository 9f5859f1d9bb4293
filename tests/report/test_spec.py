"""Spec hashing, parameter resolution, and catalog integrity."""

import inspect
from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.report import all_specs, get_spec, select_specs
from repro.report.catalog import SMOKE_SPEC_IDS
from repro.report.checks import CHECKS
from repro.bench import experiments
from repro.report.spec import KINDS, ExperimentSpec


def make_spec(**overrides):
    fields = dict(
        spec_id="toy",
        kind="scalar",
        build=experiments.resource_utilization_comparison,
        section_title="Toy",
        paper_claim="toy claim",
        params={"duration": 20.0},
        quick_params={"duration": 6.0},
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestSpecHash:
    def test_stable_across_calls(self):
        spec = make_spec()
        assert spec.spec_hash() == spec.spec_hash()
        assert spec.spec_hash(quick=True) == spec.spec_hash(quick=True)

    def test_quick_and_full_differ(self):
        spec = make_spec()
        assert spec.spec_hash() != spec.spec_hash(quick=True)

    def test_overrides_change_hash(self):
        spec = make_spec()
        assert spec.spec_hash() != spec.spec_hash(overrides={"duration": 7.0})
        # A no-op override resolves to the same inputs -> same hash.
        assert spec.spec_hash() == spec.spec_hash(overrides={"duration": 20.0})

    def test_prose_and_checks_excluded(self):
        # Re-wording a claim or renaming checks must not invalidate
        # cached artifacts; only simulated inputs key the cache.
        a = make_spec()
        b = make_spec(
            section_title="Different title",
            paper_claim="different claim",
            checks=("tput-flat-1.2",),
            notes="new notes",
        )
        assert a.spec_hash() == b.spec_hash()

    def test_runner_and_id_included(self):
        a = make_spec()
        assert a.spec_hash() != make_spec(spec_id="other").spec_hash()
        assert a.spec_hash() != make_spec(build=experiments.table3_breakdown).spec_hash()

    def test_grid_value_changes_hash(self):
        # The values a panel sweeps are simulated inputs like any other.
        # They live in the spec's params (never in a builder default,
        # which the hash cannot see), so changing one changes the hash.
        swept = [spec for spec in all_specs() if "grid" in spec.params]
        assert len(swept) == 18
        for spec in swept:
            shorter = {**spec.params, "grid": spec.params["grid"][:-1]}
            assert replace(spec, params=shorter).spec_hash() != spec.spec_hash(), spec.spec_id
        for spec in all_specs():
            grid = inspect.signature(spec.build).parameters.get("grid")
            assert (grid is not None) == (spec in swept), spec.spec_id
            assert grid is None or grid.default is inspect.Parameter.empty, spec.spec_id

    def test_scale_is_pinned_into_hash(self, monkeypatch):
        spec = make_spec()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "20")
        at_20 = spec.spec_hash()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "10")
        assert spec.spec_hash() != at_20


class TestResolvedParams:
    def test_layering(self):
        spec = make_spec(params={"duration": 20.0, "a": 1}, quick_params={"duration": 6.0})
        full = spec.resolved_params()
        assert full["duration"] == 20.0 and full["a"] == 1
        quick = spec.resolved_params(quick=True)
        assert quick["duration"] == 6.0 and quick["a"] == 1
        forced = spec.resolved_params(quick=True, overrides={"duration": 3.0})
        assert forced["duration"] == 3.0

    def test_seed_and_scale_pinned(self):
        params = make_spec().resolved_params()
        assert params["seed"] == 0
        assert params["scale"] > 0

    def test_explicit_seed_kept(self):
        assert make_spec(params={"seed": 7}).resolved_params()["seed"] == 7


class TestSpecValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(kind="figure")

    def test_bad_spec_id_rejected(self):
        with pytest.raises(ConfigError):
            make_spec(spec_id="has space")


class TestCatalogIntegrity:
    def test_every_builder_lives_in_the_experiments_module(self):
        # One module of builders: the manifest's ``runner`` name is
        # then enough to find the code that produced an entry.
        for spec in all_specs():
            module, _, name = spec.runner.partition(":")
            assert module == experiments.__name__, spec.spec_id
            assert getattr(experiments, name) is spec.build, spec.spec_id

    def test_every_check_registered(self):
        for spec in all_specs():
            for name in spec.checks:
                assert name in CHECKS, f"{spec.spec_id} references unknown check {name}"

    def test_kinds_valid_and_ids_unique(self):
        specs = all_specs()
        assert len({s.spec_id for s in specs}) == len(specs)
        for spec in specs:
            assert spec.kind in KINDS

    def test_quick_hashes_distinct_across_catalog(self):
        hashes = [spec.spec_hash(quick=True) for spec in all_specs()]
        assert len(set(hashes)) == len(hashes)

    def test_get_spec_unknown_raises(self):
        with pytest.raises(ConfigError):
            get_spec("fig99")

    def test_select_specs_group_and_smoke_alias(self):
        assert [s.spec_id for s in select_specs(["fig9"])] == ["fig9-voting", "fig9-auction"]
        assert [s.spec_id for s in select_specs(["smoke"])] == list(SMOKE_SPEC_IDS)
        with pytest.raises(ConfigError):
            select_specs(["fig99"])

    def test_select_specs_default_is_whole_catalog(self):
        assert select_specs(None) == all_specs()
