"""Tests for endorsement policies and Theorem 8.1's conditions."""

import pytest

from repro.core import EndorsementPolicy
from repro.errors import PolicyError


def test_validation():
    with pytest.raises(PolicyError):
        EndorsementPolicy(0, 4)
    with pytest.raises(PolicyError):
        EndorsementPolicy(5, 4)
    assert str(EndorsementPolicy(2, 4)) == "{2 of 4}"


def test_satisfied_by_counts():
    policy = EndorsementPolicy(3, 5)
    assert not policy.satisfied_by(2)
    assert policy.satisfied_by(3)
    assert policy.satisfied_by(5)


def test_paper_example_ep1_2_of_4():
    # Section 3: EP1 {2 of 4} is safe for at most one Byzantine org and
    # live for up to two.
    policy = EndorsementPolicy(2, 4)
    assert policy.safety_tolerance == 1
    assert policy.liveness_tolerance == 2


def test_paper_example_ep2_4_of_4():
    # EP2 {4 of 4} is safe for up to three Byzantine orgs but its
    # liveness cannot tolerate any failure.
    policy = EndorsementPolicy(4, 4)
    assert policy.safety_tolerance == 3
    assert policy.liveness_tolerance == 0


def test_theorem_8_1_boundary_conditions():
    for quorum in range(1, 9):
        policy = EndorsementPolicy(quorum, 8)
        # Safety iff q >= f+1; liveness iff n-q >= f.
        assert policy.safety_tolerance == quorum - 1
        assert policy.liveness_tolerance == 8 - quorum
