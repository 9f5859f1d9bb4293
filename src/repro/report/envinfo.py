"""Environment description shared by every result-artifact writer.

``environment_info()`` is the *only* place the benchmark/report layers
read wall-clock time or host identity. Everything it returns is
volatile — it differs between machines and between runs on the same
machine — so writers must keep it in a dedicated ``environment`` block
that diff tools and the ``--check`` drift gate ignore. The rest of an
artifact (results, tables, manifests) is a pure function of seeds and
configs and therefore byte-stable across reruns.

Used by ``repro.report.manifest`` (``experiments.json``).
"""

from __future__ import annotations

import platform
import time
from typing import Dict

# Keys every environment block carries; tests pin this.
ENVIRONMENT_KEYS = ("python", "platform", "timestamp")


def environment_info() -> Dict[str, str]:
    """The volatile who/where/when of one artifact-producing run."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def strip_environment(payload: Dict) -> Dict:
    """A copy of ``payload`` without its ``environment`` block.

    The canonical "comparable part" of an artifact: two runs of the
    same specs must agree on this even though their environment blocks
    differ. Non-dict inputs are returned unchanged.
    """
    if not isinstance(payload, dict):
        return payload
    return {key: value for key, value in payload.items() if key != "environment"}


__all__ = ["ENVIRONMENT_KEYS", "environment_info", "strip_environment"]
