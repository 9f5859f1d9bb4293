"""Resumable per-experiment result cache.

Each completed experiment is written as one JSON artifact named
``<spec_id>-<hash12>.json`` where ``hash12`` prefixes the spec hash
(:meth:`~repro.report.spec.ExperimentSpec.spec_hash` — builder name +
every resolved simulation input: grid, duration, seed and scale). A
report run consults the cache before executing: a killed or
interrupted sweep restarts exactly at its first missing experiment,
and a parameter or seed change misses cleanly because the key changes
with it.

Artifacts hold *records* (plain JSON data, never pickled result
objects), so a cache hit and a fresh run are indistinguishable to the
renderers and checks. Writes are atomic (temp file + ``os.replace``)
so a crash mid-write never leaves a half-artifact that would poison
the next resume.

The cache directory (default ``.repro-report-cache/``) is disposable
and git-ignored; deleting it forces a full rerun.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Optional

from repro.report.spec import ExperimentSpec

# Artifact schema, bumped when the stored shape changes; mismatched
# artifacts are treated as misses rather than parsed optimistically.
ARTIFACT_SCHEMA = 1

# Filename hash prefix length: 12 hex chars = 48 bits, far beyond
# collision range for a catalog of tens of specs.
HASH_PREFIX = 12


class ResultCache:
    """JSON artifacts keyed by (spec_id, spec hash) under one directory."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def path_for(self, spec: ExperimentSpec, spec_hash: str) -> Path:
        return self.root / f"{spec.spec_id}-{spec_hash[:HASH_PREFIX]}.json"

    def load(self, spec: ExperimentSpec, spec_hash: str) -> Optional[Any]:
        """The cached records, or ``None`` on any kind of miss.

        A corrupt, truncated, schema-mismatched, or (full-)hash-
        mismatched artifact is a miss — the caller reruns and
        overwrites it.
        """
        path = self.path_for(spec, spec_hash)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != ARTIFACT_SCHEMA
            or payload.get("spec_hash") != spec_hash
        ):
            return None
        return payload.get("records")

    def store(self, spec: ExperimentSpec, spec_hash: str, records: Any) -> Path:
        """Atomically persist one experiment's records."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec, spec_hash)
        payload = {
            "schema": ARTIFACT_SCHEMA,
            "spec_id": spec.spec_id,
            "spec_hash": spec_hash,
            "records": records,
        }
        tmp = path.with_suffix(".json.tmp")
        # No sort_keys: record dicts carry meaning in their insertion
        # order (comparison series render in builder order, with the
        # paper's system first), and a cache hit must render
        # byte-identically to the fresh run that produced it.
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, path)
        return path


__all__ = ["ARTIFACT_SCHEMA", "HASH_PREFIX", "ResultCache"]
