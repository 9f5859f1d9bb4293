"""Layer budget: attribute one profiled run to the packages of ``repro``.

The input is the raw ``pstats`` table of a ``cProfile`` run that the
benchmark's own code wrapped around ``run_experiment`` — nothing in
``src/`` is edited or wrapped by name. Attribution is by *source path*:
a Python function defined under ``repro/<layer>/`` books its self time
to ``<layer>``. That is deliberate. Generator handlers run inside
``sim.Process._step``, so wrapping named methods would book
organization logic to ``sim``; and a list of wrapped names would break
the day ``core/organization.py`` is split.

Everything else — C functions (``heapq``, ``hashlib``, ``sorted``,
``str.join``), the standard library, the benchmark's own frames — has
no layer of its own. Its self time is split over the profiler's caller
edges: the time a callee spent when called from ``crypto`` goes to
``crypto``. A caller that is itself layer-less passes its own split on.
What has no caller at all (the profiled root) is ``other``.

cProfile charges a fixed cost per Python call and none inside C code,
so shares lean towards call-heavy layers; the budget finds where time
goes, the untraced run measures how much (see README.md).
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import defaultdict
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

LAYERS: Tuple[str, ...] = (
    "sim",
    "net",
    "crypto",
    "crdt",
    "ledger",
    "core",
    "contracts",
    "baselines",
    "resilience",
    "faults",
    "checkers",
    "obs",
    "bench",
    "other",
)

FuncKey = Tuple[str, int, str]  # pstats: (filename, first line, name)
Split = Dict[str, float]


def layer_resolver(package_root: str) -> Callable[[str], Optional[str]]:
    """Map a source filename to its layer, or None outside ``repro``.

    ``package_root`` is the directory of the ``repro`` package. Files
    directly in it (``api.py``, ``cli.py``) and sub-packages that are
    not benchmark layers (``explore``, ``report``, ``tools``) are
    ``other``.
    """
    root = os.path.normpath(package_root) + os.sep

    def layer_of(filename: str) -> Optional[str]:
        path = os.path.normpath(filename)
        if not path.startswith(root):
            return None
        head, sep, _ = path[len(root):].partition(os.sep)
        return head if sep and head in LAYERS else "other"

    return layer_of


def attribute(
    stats: Mapping[FuncKey, tuple], package_root: str, top: int = 20
) -> Dict[str, Any]:
    """Split the profile's self time over :data:`LAYERS`.

    ``stats`` is ``pstats.Stats(profile).stats``: ``{func: (cc, nc,
    tt, ct, callers)}`` with ``callers = {func: (nc, cc, tt, ct)}``.
    Returns the per-layer budget, the caller->callee layer edge table
    and the ``top`` functions by self time.
    """
    layer_of = layer_resolver(package_root)
    root = os.path.normpath(package_root) + os.sep
    native = {func: layer_of(func[0]) for func in stats}
    memo: Dict[FuncKey, Split] = {}

    def edge_weights(func: FuncKey) -> List[Tuple[FuncKey, float]]:
        """Caller edges of ``func`` weighted by self time (calls if 0)."""
        callers = stats[func][4]
        timed = [(caller, edge[2]) for caller, edge in callers.items() if caller in stats]
        if sum(weight for _, weight in timed) > 0:
            return timed
        return [(caller, float(edge[0])) for caller, edge in callers.items() if caller in stats]

    def split_of(func: FuncKey, stack: Tuple[FuncKey, ...] = ()) -> Split:
        """Layer split of a function's self time, as fractions."""
        layer = native[func]
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        edges = edge_weights(func)
        total = sum(weight for _, weight in edges)
        if func in stack or total <= 0:
            return {"other": 1.0}  # a root, or a cycle of layer-less callers
        split: Split = defaultdict(float)
        for caller, weight in edges:
            for name, fraction in split_of(caller, stack + (func,)).items():
                split[name] += fraction * weight / total
        memo[func] = dict(split)
        return memo[func]

    self_s: Split = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
    edge_table: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])
    ranked: List[Tuple[float, FuncKey]] = []
    total_s = 0.0
    for func, (_, call_count, own, _, callers) in stats.items():
        total_s += own
        ranked.append((own, func))
        for layer, fraction in split_of(func).items():
            self_s[layer] += own * fraction
        callee_layer = native[func]
        if callee_layer is None:
            continue
        calls[callee_layer] += call_count
        for caller, (edge_calls, _, _, edge_cum) in callers.items():
            caller_layer = native.get(caller)
            if caller_layer is not None and caller_layer != callee_layer:
                entry = edge_table[(caller_layer, callee_layer)]
                entry[0] += edge_calls
                entry[1] += edge_cum
    ranked.sort(reverse=True)
    return {
        "total_s": total_s,
        "layers": {
            layer: {
                "self_s": self_s[layer],
                "share": self_s[layer] / total_s if total_s > 0 else 0.0,
                "calls": calls[layer],
            }
            for layer in LAYERS
        },
        "edges": [
            {"caller": caller, "callee": callee, "calls": int(count), "cum_s": cum}
            for (caller, callee), (count, cum) in sorted(
                edge_table.items(), key=lambda item: -item[1][1]
            )
        ],
        "top": [
            {
                "function": func[2],
                "where": _where(func, root),
                "layer": max(split_of(func).items(), key=lambda item: item[1])[0],
                "calls": stats[func][1],
                "self_s": own,
            }
            for own, func in ranked[:top]
        ],
    }


def _where(func: FuncKey, root: str) -> str:
    """``sim/core.py:162`` for a function under ``root``, else its file name."""
    filename, line, _ = func
    if filename == "~":
        return "(built-in)"
    path = os.path.normpath(filename)
    shown = path[len(root):] if path.startswith(root) else os.path.basename(path)
    return f"{shown}:{line}"


# -- boundary counts ---------------------------------------------------------

# Metric name -> "module:attribute.path" of a public function whose
# exact call count in the traced run is the metric. Resolved through
# the live object's code, so moving a function between files does not
# break the count; removing or renaming it reports ``missing``.
BOUNDARIES: Dict[str, str] = {
    "crypto.canon_calls": "repro.crypto.hashing:canonical_bytes",
    "crypto.sign_calls": "repro.crypto.identity:Identity.sign",
    "crypto.verify_calls": "repro.crypto.identity:CertificateAuthority.verify",
    "crypto.verify_signature_calls": "repro.crypto.keys:verify_signature",
    "crdt.apply_calls": "repro.crdt.store:CRDTStore.apply",
    "ledger.commit_calls": "repro.ledger.ledger:Ledger.commit",
    "core.validate_calls": "repro.core.organization:Organization.validate_transaction",
}

# The event loop pops each executed callback off the heap from
# ``Simulator.run``; that edge's count is the number of events run.
EVENT_LOOP = "repro.sim.core:Simulator.run"
EVENT_POP = "heappop"

MISSING = "missing"


def code_key(spec: str) -> Optional[FuncKey]:
    """The pstats key of ``"module:attr.path"``, or None if it is gone."""
    module_name, _, path = spec.partition(":")
    try:
        target: Any = importlib.import_module(module_name)
        for part in path.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError):
        return None
    code = getattr(inspect.unwrap(target), "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def boundary_counts(
    stats: Mapping[FuncKey, tuple], boundaries: Mapping[str, str] = BOUNDARIES
) -> Dict[str, Any]:
    """Exact call counts at the layer boundaries of one profiled run.

    A function that was never called counts 0; one that no longer
    exists is :data:`MISSING`.
    """
    counts: Dict[str, Any] = {}
    for name, spec in boundaries.items():
        key = code_key(spec)
        if key is None:
            counts[name] = MISSING
        else:
            counts[name] = stats[key][1] if key in stats else 0
    return counts


def events_run(stats: Mapping[FuncKey, tuple], loop: str = EVENT_LOOP) -> Any:
    """Callbacks the event loop executed (heap pops made by ``loop``)."""
    key = code_key(loop)
    if key is None:
        return MISSING
    pops = sum(
        callers[key][0]
        for func, (_, _, _, _, callers) in stats.items()
        if func[0] == "~" and EVENT_POP in func[2] and key in callers
    )
    return pops if pops else MISSING


__all__ = [
    "BOUNDARIES",
    "LAYERS",
    "MISSING",
    "attribute",
    "boundary_counts",
    "code_key",
    "events_run",
    "layer_resolver",
]
