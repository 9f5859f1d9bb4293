"""Tests for the transaction recorder."""

from repro.core.recording import TransactionRecorder
from repro.obs import TraceCollector


def test_lifecycle_success():
    recorder = TransactionRecorder()
    recorder.submitted("t1", "c", "modify", 1.0)
    recorder.committed("t1", 1.5)
    record = recorder.records["t1"]
    assert record.succeeded
    assert record.latency == 0.5
    assert recorder.latencies("modify") == [0.5]
    assert recorder.latencies("read") == []


def test_lifecycle_failure():
    recorder = TransactionRecorder()
    recorder.submitted("t1", "c", "modify", 1.0)
    recorder.failed("t1", 2.0, "rejected")
    record = recorder.records["t1"]
    assert not record.succeeded
    assert record.latency is None
    assert record.failure_reason == "rejected"
    assert len(recorder.failures()) == 1


def test_commit_after_failure_is_ignored():
    # A late receipt after the client already gave up must not flip
    # the outcome retroactively... commits are only recorded while the
    # transaction is still pending or already committed.
    recorder = TransactionRecorder()
    recorder.submitted("t1", "c", "modify", 1.0)
    recorder.committed("t1", 2.0)
    recorder.failed("t1", 3.0, "late timeout")  # ignored: already committed
    assert recorder.records["t1"].succeeded
    assert recorder.records["t1"].failed_at is None


def test_double_commit_keeps_first_timestamp():
    recorder = TransactionRecorder()
    recorder.submitted("t1", "c", "read", 0.0)
    recorder.committed("t1", 1.0)
    recorder.committed("t1", 5.0)
    assert recorder.records["t1"].committed_at == 1.0


def test_unknown_transaction_events_are_noops():
    recorder = TransactionRecorder()
    recorder.committed("ghost", 1.0)
    recorder.failed("ghost", 1.0, "x")
    recorder.retried("ghost", "endorse", 1, 1.0)
    assert recorder.records == {}


def test_retry_counting():
    recorder = TransactionRecorder()
    recorder.submitted("t1", "c", "modify", 0.0)
    recorder.retried("t1", "endorse", 1, 0.5)
    recorder.retried("t1", "commit", 1, 0.7)
    assert recorder.records["t1"].retries == 2


def test_phase_means():
    recorder = TransactionRecorder()
    assert recorder.mean_phase("nothing") == 0.0
    recorder.phase("p", 0.0, 0.1, node="org0", txn_id="t1")
    recorder.phase("p", 0.0, 0.3, node="org1", txn_id="t1")
    assert recorder.mean_phase("p") == 0.2


def test_kind_filtering():
    recorder = TransactionRecorder()
    recorder.submitted("m", "c", "modify", 0.0)
    recorder.submitted("r", "c", "read", 0.0)
    recorder.committed("m", 1.0)
    recorder.committed("r", 1.0)
    assert len(recorder.successes("modify")) == 1
    assert len(recorder.successes("read")) == 1
    assert len(recorder.successes()) == 2


def test_a_resubmitted_id_keeps_its_first_record():
    recorder = TransactionRecorder()
    recorder.submitted("t1", "c", "read", 1.0)
    recorder.submitted("t1", "c", "modify", 2.0)
    assert (recorder.records["t1"].kind, recorder.records["t1"].submitted_at) == ("read", 1.0)


def test_each_fact_reaches_the_trace_once():
    recorder = TransactionRecorder()
    recorder.trace = trace = TraceCollector()
    recorder.submitted("t1", "c", "modify", 1.0)
    recorder.retried("t1", "commit", 1, 1.5)
    recorder.phase("x/P1", 1.0, 1.25, node="org0", txn_id="t1", attrs={"valid": True})
    recorder.committed("t1", 2.0)
    recorder.failed("t1", 3.0, "late timeout")  # ignored, so not traced either
    recorder.submitted("t2", "c", "read", 1.0)
    recorder.failed("t2", 4.0, "read timeout")
    assert [(i.name, i.at, i.node, i.txn_id, i.attrs) for i in trace.instants] == [
        ("txn/submitted", 1.0, "c", "t1", {"kind": "modify"}),
        ("client/retry", 1.5, "c", "t1", {"phase": "commit", "attempt": 1}),
        ("txn/committed", 2.0, "c", "t1", {}),
        ("txn/submitted", 1.0, "c", "t2", {"kind": "read"}),
        ("txn/failed", 4.0, "c", "t2", {"reason": "read timeout"}),
    ]
    assert [(s.name, s.start, s.end, s.node, s.attrs) for s in trace.spans] == [
        ("x/P1", 1.0, 1.25, "org0", {"valid": True}),
        ("client/txn", 1.0, 2.0, "c", {"kind": "modify", "outcome": "committed"}),
        ("client/txn", 1.0, 4.0, "c", {"kind": "read", "outcome": "read timeout"}),
    ]
    assert recorder.mean_phase("x/P1") == 0.25
