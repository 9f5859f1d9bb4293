"""Tests for the calibrated performance model."""

import dataclasses

import pytest

from repro.core.perf import PerfModel


def test_scaled_multiplies_service_times():
    base = PerfModel()
    scaled = base.scaled(10)
    assert scaled.endorse_base == pytest.approx(10 * base.endorse_base)
    assert scaled.fabric_orderer_per_txn == pytest.approx(10 * base.fabric_orderer_per_txn)
    assert scaled.bidl_leader_per_txn == pytest.approx(10 * base.bidl_leader_per_txn)


def test_scaled_keeps_latency_constants():
    base = PerfModel()
    scaled = base.scaled(10)
    # Batch intervals and the synchrony bound are latency floors, not
    # service rates: scaling them would distort every baseline's
    # latency floor without changing utilization.
    assert scaled.fabric_batch_timeout == base.fabric_batch_timeout
    assert scaled.bidl_batch_interval == base.bidl_batch_interval
    assert scaled.hotstuff_batch_interval == base.hotstuff_batch_interval
    assert scaled.hotstuff_delta == base.hotstuff_delta


def test_scaled_keeps_counts_and_sizes():
    base = PerfModel()
    scaled = base.scaled(10)
    assert scaled.vcpus == base.vcpus
    assert scaled.fabric_max_batch == base.fabric_max_batch
    assert scaled.proposal_bytes == base.proposal_bytes
    assert scaled.per_op_bytes == base.per_op_bytes


def test_scale_one_is_identity():
    base = PerfModel()
    assert base.scaled(1) is base


def test_invalid_scale_rejected():
    with pytest.raises(ValueError):
        PerfModel().scaled(0)
    with pytest.raises(ValueError):
        PerfModel().scaled(-2)


def test_endorsement_bytes_grow_with_ops():
    perf = PerfModel()
    assert perf.endorsement_bytes(8) - perf.endorsement_bytes(0) == 8 * perf.per_op_bytes


def test_utilization_invariance_under_scaling():
    """The core scaling property: (rate / k) * (service * k) == rate * service."""
    base = PerfModel()
    for factor in (2, 10, 50):
        scaled = base.scaled(factor)
        for field in dataclasses.fields(base):
            if not isinstance(getattr(base, field.name), float):
                continue
            if getattr(scaled, field.name) == getattr(base, field.name):
                continue  # unscaled latency constant
            rate = 1000.0
            assert (rate / factor) * getattr(scaled, field.name) == pytest.approx(
                rate * getattr(base, field.name)
            )


def test_scaled_covers_every_field():
    # Every int field (a size, a count or vcpus) is kept; every other
    # field but the four latency constants is a service time and scales.
    latency_constants = {
        "fabric_batch_timeout",
        "bidl_batch_interval",
        "hotstuff_batch_interval",
        "hotstuff_delta",
    }
    base = PerfModel()
    scaled = base.scaled(10)
    int_fields = [f.name for f in dataclasses.fields(base) if type(getattr(base, f.name)) is int]
    for field in dataclasses.fields(base):
        before, after = getattr(base, field.name), getattr(scaled, field.name)
        if field.name in int_fields or field.name in latency_constants:
            assert after == before, field.name
            assert type(after) is type(before), field.name
        else:
            assert type(before) is float, field.name
            assert after == pytest.approx(10 * before), field.name
