"""The documented metrics schema — the single source of truth.

Every span, instant, gauge, and counter name the observability layer
emits is registered here with its kind, emitting component, and unit.
``docs/OBSERVABILITY.md`` renders this catalogue for humans;
``validate_chrome_trace`` checks an exported trace against it (used by
``benchmarks/bench_smoke_obs.py`` and the unit tests), so schema and
implementation cannot drift apart silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

SPAN = "span"
INSTANT = "instant"
GAUGE = "gauge"
COUNTER = "counter"


@dataclass(frozen=True)
class MetricSpec:
    """What one emitted name means."""

    name: str
    kind: str  # span | instant | gauge | counter
    component: str  # which module/class emits it
    unit: str
    description: str


def _spec(name: str, kind: str, component: str, unit: str, description: str) -> MetricSpec:
    return MetricSpec(name, kind, component, unit, description)


_SPECS: List[MetricSpec] = [
    # -- transaction lifecycle (client's view) ---------------------------------
    # client/txn and txn/* come from the run's recorder, for every system.
    _spec(
        "client/txn",
        SPAN,
        "core.recording.TransactionRecorder",
        "s",
        "Whole transaction lifecycle: submit to commit/failure. "
        "attrs: kind (modify|read), outcome (committed|failed).",
    ),
    _spec(
        "client/endorse_wait",
        SPAN,
        "core.client.Client",
        "s",
        "One endorsement attempt: proposals sent to quorum reached or "
        "proposal timeout. attrs: attempt (0-based retry index).",
    ),
    _spec(
        "client/commit_wait",
        SPAN,
        "core.client.Client",
        "s",
        "Commit phase: transaction sent to q receipts or commit timeout.",
    ),
    _spec(
        "client/read_wait",
        SPAN,
        "core.client.Client",
        "s",
        "Read transaction: requests sent to q responses or read timeout.",
    ),
    _spec(
        "txn/submitted",
        INSTANT,
        "core.recording.TransactionRecorder",
        "-",
        "Client submitted a transaction.",
    ),
    _spec(
        "txn/committed",
        INSTANT,
        "core.recording.TransactionRecorder",
        "-",
        "Transaction successfully committed.",
    ),
    _spec(
        "txn/failed",
        INSTANT,
        "core.recording.TransactionRecorder",
        "-",
        "Transaction failed. attrs: reason.",
    ),
    # -- OrderlessChain organization phases -----------------------------------------
    _spec(
        "orderlesschain/P1/Execution",
        SPAN,
        "core.organization.Organization",
        "s",
        "Phase 1 at one organization: proposal arrival to endorsement "
        "send (contract execution + CPU queue + CPU service).",
    ),
    _spec(
        "orderlesschain/P1/Queue",
        SPAN,
        "core.organization.Organization",
        "s",
        "Endorsement CPU queueing: proposal arrival to CPU slot granted.",
    ),
    _spec(
        "orderlesschain/P1/CPU",
        SPAN,
        "core.organization.Organization",
        "s",
        "Endorsement CPU service: slot granted to execution done.",
    ),
    _spec(
        "orderlesschain/P2/Commit",
        SPAN,
        "core.organization.Organization",
        "s",
        "Phase 2 at one organization: commit arrival to receipt send "
        "(verification + cache apply). attrs: valid (bool).",
    ),
    _spec(
        "orderlesschain/P2/Verify",
        SPAN,
        "core.organization.Organization",
        "s",
        "Signature/policy verification, including CPU queueing.",
    ),
    _spec(
        "orderlesschain/P2/Apply",
        SPAN,
        "core.organization.Organization",
        "s",
        "Applying the write-set to the CRDT cache: cache-lock wait + hold.",
    ),
    # -- network ------------------------------------------------------------------
    _spec(
        "net/hop",
        SPAN,
        "net.network.Network",
        "s",
        "One message in flight: send to delivery at the recipient. "
        "attrs: type (message type), sender.",
    ),
    # -- baseline phases (same names the TransactionRecorder uses) ---------------
    _spec("fabric/P1/Endorse", SPAN, "baselines.fabric.FabricPeer", "s", "Fabric endorsement at one peer."),
    _spec(
        "fabric/P2/Consensus",
        SPAN,
        "baselines.fabric.FabricNetwork",
        "s",
        "Solo ordering: arrival at the orderer to block broadcast.",
    ),
    _spec(
        "fabric/P3/Commit",
        SPAN,
        "baselines.fabric.FabricPeer",
        "s",
        "Block validation (MVCC) and commit of one transaction at one peer.",
    ),
    _spec(
        "fabriccrdt/P1/Endorse",
        SPAN,
        "baselines.fabric_crdt.FabricCRDTPeer",
        "s",
        "FabricCRDT endorsement (state-based CRDT document retrieval).",
    ),
    _spec(
        "fabriccrdt/P3/Merge",
        SPAN,
        "baselines.fabric_crdt.FabricCRDTPeer",
        "s",
        "Merging one delivered transaction's updates into the JSON CRDT.",
    ),
    _spec(
        "bidl/P1/Sequence",
        SPAN,
        "baselines.bidl.BIDLNetwork",
        "s",
        "Sequencer: arrival to sequenced multicast.",
    ),
    _spec(
        "bidl/P2/Consensus",
        SPAN,
        "baselines.bidl.BIDLNetwork",
        "s",
        "Consensus: enqueue at the leader to DECIDE.",
    ),
    _spec(
        "bidl/P3/Execution",
        SPAN,
        "baselines.bidl.BIDLOrg",
        "s",
        "Speculative execution of one sequenced transaction.",
    ),
    _spec("bidl/P4/Commit", SPAN, "baselines.bidl.BIDLOrg", "s", "Commit on DECIDE at one organization."),
    _spec(
        "hotstuff/P1/Consensus",
        SPAN,
        "baselines.sync_hotstuff.SyncHotStuffNetwork",
        "s",
        "Leader-side consensus: submit arrival to proposal broadcast.",
    ),
    _spec(
        "hotstuff/P2/Commit",
        SPAN,
        "baselines.sync_hotstuff.SyncHotStuffOrg",
        "s",
        "Commit of one transaction after the synchronous 2-delta wait.",
    ),
    # -- fault injection (repro.faults.engine.FaultInjector) -----------------------
    _spec(
        "fault/injected",
        INSTANT,
        "faults.engine.FaultInjector",
        "-",
        "One fault event applied from the schedule. attrs: kind.",
    ),
    _spec(
        "fault/crash",
        SPAN,
        "faults.engine.FaultInjector",
        "s",
        "A node's crash window: fail-stop to recovery (or run end). "
        "attrs: recovery (resync|snapshot|catchup), when it recovered.",
    ),
    _spec(
        "fault/partition",
        SPAN,
        "faults.engine.FaultInjector",
        "s",
        "A network partition window: cut to heal (or run end).",
    ),
    _spec(
        "fault/loss",
        SPAN,
        "faults.engine.FaultInjector",
        "s",
        "A message loss/duplication burst window.",
    ),
    _spec(
        "fault/slow",
        SPAN,
        "faults.engine.FaultInjector",
        "s",
        "A CPU slowdown window on one node. attrs: factor.",
    ),
    # -- adaptive resilience (repro.resilience, docs/RESILIENCE.md) -----------------
    _spec(
        "client/retry",
        INSTANT,
        "core.recording.TransactionRecorder",
        "-",
        "A phase is being retried after a timed-out attempt. "
        "attrs: phase (endorse|commit), attempt (1-based).",
    ),
    _spec(
        "client/backoff",
        SPAN,
        "core.client.Client",
        "s",
        "One timed-out wait window that a retry follows; the next "
        "attempt's deadline is backed off. attrs: attempt, deadline.",
    ),
    _spec(
        "breaker/transition",
        INSTANT,
        "resilience.breaker.CircuitBreaker",
        "-",
        "A per-org circuit breaker changed state. attrs: org, "
        "from, to (closed|open|half-open).",
    ),
    _spec(
        "org/snapshot",
        INSTANT,
        "core.organization.Organization",
        "-",
        "A recovery checkpoint of the committed set was taken. "
        "attrs: txns (total), new (since the previous snapshot).",
    ),
    _spec(
        "org/recover",
        SPAN,
        "core.organization.Organization",
        "s",
        "Snapshot-based crash recovery: delta replay plus targeted "
        "anti-entropy. attrs: mode, replayed, peers.",
    ),
    # -- watermark anti-entropy (docs/PERFORMANCE.md) --------------------------------
    _spec(
        "org/sync_digest",
        INSTANT,
        "core.organization.Organization",
        "-",
        "An anti-entropy digest was sent. attrs: bytes (modeled wire "
        "size), context (sync|resync|recover).",
    ),
    _spec(
        "org/sync_reconcile",
        INSTANT,
        "core.organization.Organization",
        "-",
        "A received digest was reconciled against local state. attrs: "
        "missing (ids requested), surplus (txns pushed), pages (sync "
        "messages sent).",
    ),
    # -- report pipeline (repro.report.pipeline) -----------------------------------
    # These are the only spans measured in *wall* seconds: they time the
    # report pipeline itself (the harness), not the simulation.
    _spec(
        "report/experiment",
        SPAN,
        "report.pipeline.run_report",
        "s (wall)",
        "One catalog experiment through the report pipeline: cache "
        "lookup, run on miss, store. attrs: spec_id, cached (bool).",
    ),
    _spec(
        "report/render",
        SPAN,
        "report.pipeline.run_report",
        "s (wall)",
        "Rendering/diffing every selected section plus manifest and CSV "
        "output. attrs: check (bool), sections (count).",
    ),
    # -- schedule exploration (repro.explore.engine) -------------------------------
    # Wall-second harness spans, same convention as report/*.
    _spec(
        "explore/execution",
        SPAN,
        "explore.engine.explore",
        "s (wall)",
        "One explored case executed and oracle-checked. attrs: system, "
        "ok (bool), novel (coverage signature unseen before).",
    ),
    _spec(
        "explore/minimize",
        SPAN,
        "explore.engine.explore",
        "s (wall)",
        "Delta-debugging a violation to a minimal counterexample, "
        "including the two replay-verification executions. attrs: "
        "executions (count), events_before, events_after.",
    ),
    # -- node time-series gauges (sampled by obs.sampler.NodeSampler) --------------
    _spec(
        "node/cpu/utilization",
        GAUGE,
        "obs.sampler.NodeSampler",
        "fraction",
        "Busy fraction of the node's CPU slots over the last sample window.",
    ),
    _spec("node/cpu/queue", GAUGE, "obs.sampler.NodeSampler", "requests", "Requests waiting for a CPU slot."),
    _spec("node/cpu/in_use", GAUGE, "obs.sampler.NodeSampler", "slots", "CPU slots currently held."),
    _spec(
        "node/lock/utilization",
        GAUGE,
        "obs.sampler.NodeSampler",
        "fraction",
        "Busy fraction of the CRDT-cache lock over the last sample window.",
    ),
    _spec("node/lock/queue", GAUGE, "obs.sampler.NodeSampler", "requests", "Requests waiting for the cache lock."),
    _spec(
        "node/queue/depth",
        GAUGE,
        "obs.sampler.NodeSampler",
        "items",
        "Items waiting in a batch server's queue (orderer/sequencer/leader); "
        "one track per entry of BaselineNetwork.queues.",
    ),
    _spec("net/in_flight", GAUGE, "obs.sampler.NodeSampler", "messages", "Messages currently in transit."),
    # -- network cumulative counters (sampled) -----------------------------------
    _spec("net/sent", COUNTER, "obs.sampler.NodeSampler", "messages", "Cumulative messages sent."),
    _spec("net/delivered", COUNTER, "obs.sampler.NodeSampler", "messages", "Cumulative messages delivered."),
    _spec("net/dropped", COUNTER, "obs.sampler.NodeSampler", "messages", "Cumulative messages dropped."),
]

SCHEMA: Dict[str, MetricSpec] = {spec.name: spec for spec in _SPECS}

SPAN_NAMES = frozenset(spec.name for spec in _SPECS if spec.kind == SPAN)
INSTANT_NAMES = frozenset(spec.name for spec in _SPECS if spec.kind == INSTANT)
GAUGE_NAMES = frozenset(spec.name for spec in _SPECS if spec.kind == GAUGE)
COUNTER_NAMES = frozenset(spec.name for spec in _SPECS if spec.kind == COUNTER)


def spec_for(name: str) -> MetricSpec:
    """The spec for an emitted name; raises ``KeyError`` if undocumented."""
    return SCHEMA[name]


def validate_collector(collector) -> List[str]:
    """Check every record in a :class:`TraceCollector` against the schema."""
    errors: List[str] = []
    for span in collector.spans:
        if span.name not in SPAN_NAMES:
            errors.append(f"undocumented span name {span.name!r}")
        if span.end < span.start:
            errors.append(f"span {span.name!r} ends before it starts ({span.start} > {span.end})")
        if span.start < 0:
            errors.append(f"span {span.name!r} starts before t=0")
    for instant in collector.instants:
        if instant.name not in INSTANT_NAMES:
            errors.append(f"undocumented instant name {instant.name!r}")
    for sample in collector.samples:
        if sample.name not in GAUGE_NAMES and sample.name not in COUNTER_NAMES:
            errors.append(f"undocumented sample name {sample.name!r}")
    return errors


def validate_chrome_trace(payload: Any) -> List[str]:
    """Check an exported Chrome trace against the documented schema.

    Returns a list of problems (empty means valid). The checks cover
    the structural contract ``chrome://tracing`` needs — ``traceEvents``
    with ``name``/``ph``/``ts``, complete events with non-negative
    ``dur`` — plus the repro-specific contract that every event name is
    documented in :data:`SCHEMA` with the matching kind.
    """
    errors: List[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["payload is not a dict with a 'traceEvents' key"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph is None or "name" not in event:
            errors.append(f"{where}: missing 'ph' or 'name'")
            continue
        if ph == "M":  # metadata (process/thread names) carries no timestamp
            continue
        if not isinstance(event.get("ts"), (int, float)) or event["ts"] < 0:
            errors.append(f"{where}: missing or negative 'ts'")
        name = event["name"]
        if ph == "X":
            if not isinstance(event.get("dur"), (int, float)) or event["dur"] < 0:
                errors.append(f"{where}: complete event without non-negative 'dur'")
            if name not in SPAN_NAMES:
                errors.append(f"{where}: undocumented span name {name!r}")
        elif ph == "i":
            if name not in INSTANT_NAMES:
                errors.append(f"{where}: undocumented instant name {name!r}")
        elif ph == "C":
            if name not in GAUGE_NAMES and name not in COUNTER_NAMES:
                errors.append(f"{where}: undocumented counter name {name!r}")
            if not isinstance(event.get("args"), dict) or not event["args"]:
                errors.append(f"{where}: counter event without args")
        else:
            errors.append(f"{where}: unsupported phase {ph!r}")
    return errors


__all__ = [
    "COUNTER",
    "COUNTER_NAMES",
    "GAUGE",
    "GAUGE_NAMES",
    "INSTANT",
    "INSTANT_NAMES",
    "MetricSpec",
    "SCHEMA",
    "SPAN",
    "SPAN_NAMES",
    "spec_for",
    "validate_chrome_trace",
    "validate_collector",
]
