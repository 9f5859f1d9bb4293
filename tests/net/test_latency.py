"""Tests for the link latency and fault models."""

import random

import pytest

from repro.net import LatencyModel, LinkFaults


def test_defaults_match_paper_wan():
    model = LatencyModel()
    assert model.one_way_delay == pytest.approx(0.050)
    assert model.jitter_std == pytest.approx(0.004)
    assert model.bandwidth_bytes_per_s == pytest.approx(100e6 / 8)


def test_delay_includes_serialization():
    model = LatencyModel(one_way_delay=0.05, jitter_std=0.0)
    rng = random.Random(1)
    small = model.delay_for(100, rng)
    large = model.delay_for(12_500_000, rng)  # one second of bytes
    assert small == pytest.approx(0.05 + 100 / 12.5e6)
    assert large == pytest.approx(1.05)


def test_delay_never_negative():
    model = LatencyModel(one_way_delay=0.001, jitter_std=1.0)
    rng = random.Random(7)
    assert all(model.delay_for(0, rng) >= 0 for _ in range(200))


def test_jitter_varies_delay():
    model = LatencyModel()
    rng = random.Random(3)
    delays = {model.delay_for(100, rng) for _ in range(10)}
    assert len(delays) > 1


def test_fault_probabilities_validated():
    LinkFaults(loss_probability=0.5)  # fine
    with pytest.raises(ValueError):
        LinkFaults(loss_probability=1.5)
    with pytest.raises(ValueError):
        LinkFaults(duplicate_probability=-0.1)
    with pytest.raises(ValueError):
        LinkFaults(corrupt_probability=2.0)


def test_delay_for_is_deterministic_given_rng_state():
    model = LatencyModel()
    a = model.delay_for(100, random.Random(9))
    b = model.delay_for(100, random.Random(9))
    assert a == b
