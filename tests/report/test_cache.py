"""Artifact cache: roundtrip, miss semantics, atomicity."""

import json

from repro.bench.experiments import resource_utilization_comparison
from repro.report.cache import ARTIFACT_SCHEMA, HASH_PREFIX, ResultCache
from repro.report.spec import ExperimentSpec


def make_spec():
    return ExperimentSpec(
        spec_id="toy",
        kind="scalar",
        build=resource_utilization_comparison,
        section_title="Toy",
        paper_claim="toy",
        params={"duration": 6.0},
        quick_params={"duration": 2.0},
    )


RECORDS = {"alpha": 1.5, "beta": 2.0}


def test_roundtrip_and_naming(tmp_path):
    spec = make_spec()
    cache = ResultCache(tmp_path / "cache")
    spec_hash = spec.spec_hash()
    assert cache.load(spec, spec_hash) is None  # cold cache

    path = cache.store(spec, spec_hash, RECORDS)
    assert path.name == f"toy-{spec_hash[:HASH_PREFIX]}.json"
    assert cache.load(spec, spec_hash) == RECORDS
    # No temp file left behind after the atomic replace.
    assert list(path.parent.glob("*.tmp")) == []


def test_corrupt_artifact_is_a_miss(tmp_path):
    spec = make_spec()
    cache = ResultCache(tmp_path)
    spec_hash = spec.spec_hash()
    path = cache.store(spec, spec_hash, RECORDS)

    path.write_text("{ truncated")
    assert cache.load(spec, spec_hash) is None
    # Rerunning overwrites the corrupt artifact cleanly.
    cache.store(spec, spec_hash, RECORDS)
    assert cache.load(spec, spec_hash) == RECORDS


def test_schema_mismatch_is_a_miss(tmp_path):
    spec = make_spec()
    cache = ResultCache(tmp_path)
    spec_hash = spec.spec_hash()
    path = cache.store(spec, spec_hash, RECORDS)

    payload = json.loads(path.read_text())
    payload["schema"] = ARTIFACT_SCHEMA + 1
    path.write_text(json.dumps(payload))
    assert cache.load(spec, spec_hash) is None


def test_full_hash_mismatch_is_a_miss(tmp_path):
    # The filename only carries a 12-char prefix; the stored artifact
    # records the full hash and a prefix collision must not replay.
    spec = make_spec()
    cache = ResultCache(tmp_path)
    spec_hash = spec.spec_hash()
    path = cache.store(spec, spec_hash, RECORDS)

    forged = spec_hash[:HASH_PREFIX] + "0" * (len(spec_hash) - HASH_PREFIX)
    payload = json.loads(path.read_text())
    payload["spec_hash"] = forged
    path.write_text(json.dumps(payload))
    assert cache.load(spec, spec_hash) is None


def test_roundtrip_preserves_dict_order(tmp_path):
    # Comparison/breakdown records carry meaning in insertion order
    # (the paper's system renders first); a cache hit must render
    # byte-identically to the fresh run that produced it.
    spec = make_spec()
    cache = ResultCache(tmp_path)
    spec_hash = spec.spec_hash()
    records = {"orderlesschain": [1], "fabric": [2], "bidl": [3]}
    cache.store(spec, spec_hash, records)
    assert list(cache.load(spec, spec_hash)) == ["orderlesschain", "fabric", "bidl"]


def test_parameter_change_changes_key(tmp_path):
    spec = make_spec()
    cache = ResultCache(tmp_path)
    cache.store(spec, spec.spec_hash(), RECORDS)
    # Quick mode resolves different inputs -> different artifact.
    assert cache.load(spec, spec.spec_hash(quick=True)) is None
