"""Tests for metric computation."""

import math

import pytest

from repro.bench.metrics import LatencyStats, compute_result, percentile
from repro.core.recording import TransactionRecorder


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_single_value(self):
        assert percentile([3.0], 1) == 3.0
        assert percentile([3.0], 99) == 3.0

    def test_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_order_insensitive(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == percentile([1.0, 2.0, 3.0, 4.0], 50)


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats.from_seconds([])
        assert stats.count == 0
        assert math.isnan(stats.avg_ms)

    def test_converts_to_milliseconds(self):
        stats = LatencyStats.from_seconds([0.1, 0.2, 0.3])
        assert stats.count == 3
        assert stats.avg_ms == pytest.approx(200.0)
        assert stats.p1_ms <= stats.p99_ms


def make_recorder():
    recorder = TransactionRecorder()
    # 10 modifies committed at 1 tps, 5 reads, 2 failures.
    for i in range(10):
        recorder.submitted(f"m{i}", "c", "modify", float(i))
        recorder.committed(f"m{i}", float(i) + 0.5)
    for i in range(5):
        recorder.submitted(f"r{i}", "c", "read", float(i))
        recorder.committed(f"r{i}", float(i) + 0.1)
    recorder.submitted("f0", "c", "modify", 0.0)
    recorder.failed("f0", 1.0, "rejected")
    recorder.submitted("f1", "c", "modify", 0.0)
    recorder.failed("f1", 1.0, "timeout")
    return recorder


def test_compute_result_counts_and_throughput():
    result = compute_result(make_recorder(), "orderlesschain", "voting", 100.0, scale=1.0)
    assert result.submitted == 17
    assert result.committed == 15
    assert result.failed == 2
    # Span: first submit 0.0 to last commit 9.5.
    assert result.throughput_tps == pytest.approx(15 / 9.5)
    assert result.throughput_modify_tps == pytest.approx(10 / 9.5)
    assert result.throughput_read_tps == pytest.approx(5 / 9.5)
    assert result.failure_reasons == {"rejected": 1, "timeout": 1}


def test_compute_result_scales_throughput_back_to_paper_units():
    unscaled = compute_result(make_recorder(), "s", "a", 100.0, scale=1.0)
    scaled = compute_result(make_recorder(), "s", "a", 100.0, scale=20.0)
    assert scaled.throughput_tps == pytest.approx(20 * unscaled.throughput_tps)
    # Latencies are not scaled.
    assert scaled.latency_modify.avg_ms == unscaled.latency_modify.avg_ms


def test_latency_split_by_kind():
    result = compute_result(make_recorder(), "s", "a", 100.0, scale=1.0)
    assert result.latency_modify.avg_ms == pytest.approx(500.0)
    assert result.latency_read.avg_ms == pytest.approx(100.0)


def test_timeline_buckets_commits():
    result = compute_result(make_recorder(), "s", "a", 100.0, scale=1.0, timeline_bucket=5.0)
    assert len(result.timeline) == 2
    # Bucket 0 holds commits at t<5: m0..m4 (5) + all reads (5) = 10.
    assert result.timeline[0] == (0.0, pytest.approx(10 / 5.0))


def test_empty_recorder():
    result = compute_result(TransactionRecorder(), "s", "a", 100.0, scale=1.0)
    assert result.committed == 0
    assert result.throughput_tps == 0.0
    assert result.timeline == []


def test_summary_row_is_flat():
    row = compute_result(make_recorder(), "s", "a", 100.0, scale=1.0).summary_row()
    assert row["system"] == "s"
    assert isinstance(row["tput"], float)


def test_phase_means():
    recorder = make_recorder()
    recorder.phase("x/P1", 0.0, 0.010, node="org0", txn_id="m0")
    recorder.phase("x/P1", 0.0, 0.020, node="org0", txn_id="m1")
    result = compute_result(recorder, "s", "a", 100.0, scale=1.0)
    assert result.phase_means_ms["x/P1"] == pytest.approx(15.0)
