"""Retired names stay gone.

Each row is one subtraction: a regular expression (the ``grep -E``
dialect, matched line by line), the directories it must not match in,
and what was retired. A match means a deleted layer, shim or helper
came back. This file holds the patterns themselves, so it skips itself.
"""

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SELF = os.path.abspath(__file__)

GONE = [
    (
        r"legacy_digests|_multichannel\b|settings_from_config",
        ("src",),
        "legacy digest arm, single-channel switch, settings shim",
    ),
    (
        r"resolve_runner|\b_run_fig|format_sweep|format_comparison|format_timeline",
        ("src", "benchmarks", "tests"),
        "one experiment registry: string runners, per-figure CLI wrappers and the second"
        " table renderer",
    ),
    (
        r"FabricCRDTSettings|BIDLSettings|SyncHotStuffSettings|fabriccrdt_timeout|raft_followers"
        r"|_BaselineAdapter|BIDLAdapter|SyncHotStuffAdapter|FabricCRDTAdapter",
        ("src", "tests", "benchmarks"),
        "one baseline skeleton: per-system settings classes, per-system adapters and"
        " single-value settings",
    ),
    (
        r"yield from [^(]*\.(serve|transmit)\(|\.request\(\)|service_time\(",
        ("src",),
        "one event per service: serve generators, request/release and inlined service times",
    ),
    (
        r"NullRecorder|MultiRecorder|extra_recorder|_trace_done|_trace_submitted|_trace_retry"
        r"|phase_shares",
        ("src", "tests", "benchmarks"),
        "one record per fact: second trace sinks and the client-side outcome helpers",
    ),
    (
        r"(org|client)\.tracer|self\.net\.tracer|tracer=",
        ("src",),
        "one record per fact: per-component tracers",
    ),
    (
        r"SystemAdapter|adapter_for|OrderlessChainAdapter|BaselineAdapter|breaker_states"
        r"|recovery_mode|_NODE_PREFIX|install_fault_schedule|check_invariants",
        ("src", "tests"),
        "one node surface: the fault adapter layer, its node-naming table and the"
        " network-side forwarders",
    ),
    (
        r"_hedged_count|_observe_rtts|_record_attempt_outcome|resilience_rng",
        ("src", "tests"),
        "one client attempt: the per-phase resilience helpers and the jitter-stream fallback",
    ),
    (
        r"_run_orderlesschain|run_baseline|_baseline_submit|_submit_with|make_channel_workloads"
        r"|_mean_cpu_utilization|_org_utilization",
        ("src", "tests", "benchmarks", "examples"),
        "one run path: the OrderlessChain/baseline runner pair, their submit closures, the"
        " per-channel workload helper and the utilization helpers",
    ),
    (
        r"extension_handlers|commit_guards|proposal_guards|commit_directly"
        r"|transactions_for_object|txns_by_object|SealingProtocol|install_sealing"
        r"|ProposalRateGuard|install_rate_guards|repro\.core\.(coordination|ddos)",
        ("src", "tests", "benchmarks", "examples"),
        "one protocol in the organization: the extension hooks, the per-object index and the"
        " sealing and rate-guard modules",
    ),
    (
        r"VectorClock|ORSet|TYPE_ORSET|compare_clocks|clock_from_wire|operation_count"
        r"|def (merge|copy)\(",
        ("src/repro/crdt", "src/repro/core", "src/repro/tools"),
        "one CRDT semantics: state merge/copy, vector clocks, the OR-Set extension and"
        " operation counts",
    ),
    (
        r"KVStore|WriteBatch|scan_prefix|valid_txn_wire|CommittedIndex|commit_index"
        r"|log_position|state_digest",
        ("src", "tests", "examples"),
        "one committed set: the KV store, ledger persistence, the per-channel wire map and"
        " the commit index",
    ),
    (
        r"OrderlessChainSettings|BaselineSettings|from_config|set_link_latency|_latency_for"
        r"|is_safe_under|is_live_under|partition_available",
        ("src", "tests", "examples"),
        "one run configuration: the settings classes, their conversion and per-link latency"
        " overrides",
    ),
    (
        r"ExploreCase|to_config|chaos_suite|\bAllOf\b",
        ("src", "tests", "benchmarks", "examples"),
        "one run description for exploration: the explore-case mirror of ExperimentConfig,"
        " its conversion, the unused chaos suite and AllOf",
    ),
    (
        r"Ed25519|\bKeyPair\b|signature_scheme|_SCHEMES|require_valid|InvalidSignatureError",
        ("src", "tests", "benchmarks", "examples"),
        "one signature scheme: Ed25519, the key-pair interface, the scheme table and knob,"
        " and the test-only CA helpers",
    ),
    (
        r"\b(ClientConfig|ResilienceConfig|client_config|proposal_timeout|commit_timeout"
        r"|read_timeout)\b",
        ("src", "tests", "benchmarks", "examples"),
        "one client configuration: the client and resilience knob objects, the network's"
        " client default and the three per-phase timeouts",
    ),
    (
        r"cache_enabled|log_replay_per_op|orderer_type|MSG_RAFT|RAFT_FOLLOWERS"
        r"|_replicate_to_followers|_follower_receive|ablation_cache|ablation_fabric_orderer"
        r"|abl-cache|abl-orderer",
        ("src", "tests", "benchmarks"),
        "one read path and one Fabric orderer: the cache-off replay arm and the Raft orderer,"
        " with their knobs, panels and checks",
    ),
    (
        r"ChannelState|sent_by_channel|bytes_by_channel|create_channel|_contract_channel"
        r"|_channel_of|channel_ids|repro\.core\.channel\b",
        ("src",),
        "one ledger per organization: the per-channel state shard, its routing map, channel"
        " creation and the per-channel traffic counters",
    ),
    (
        r"_cmd_bench|assert_records|REPRO_BENCH_DURATION|REPRO_BENCH_JOBS|default_jobs"
        r"|bench_catalog|bench_smoke_obs",
        ("src", "tests", "benchmarks", "examples", "docs"),
        "one way to run a panel: the bench subcommand, the pytest-benchmark harnesses and"
        " their environment knobs",
    ),
    (
        r"\.observability\b|def detach|config\.(trace|sample_interval)\b",
        ("src", "tests", "benchmarks", "examples"),
        "one way to trace a run: the config tracing fields, the result's observability copy"
        " and the sweep-side detach",
    ),
]


def _files(directory):
    for parent, dirs, names in os.walk(os.path.join(ROOT, directory)):
        dirs[:] = sorted(name for name in dirs if name != "__pycache__")
        for name in sorted(names):
            path = os.path.join(parent, name)
            if path != SELF:
                yield path


@pytest.mark.parametrize("pattern, directories, retired", GONE, ids=[row[2] for row in GONE])
def test_retired_names_stay_gone(pattern, directories, retired):
    regex = re.compile(pattern)
    hits = []
    for directory in directories:
        for path in _files(directory):
            with open(path, encoding="utf-8", errors="replace") as handle:
                for number, line in enumerate(handle, 1):
                    if regex.search(line):
                        hits.append(f"{os.path.relpath(path, ROOT)}:{number}: {line.strip()}")
    assert not hits, f"retired ({retired}) but back:\n" + "\n".join(hits)
