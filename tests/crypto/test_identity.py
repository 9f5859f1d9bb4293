"""Tests for identities and the certificate authority."""

import pytest

from repro.crypto.identity import CertificateAuthority
from repro.errors import CryptoError


@pytest.fixture
def ca():
    return CertificateAuthority()


def test_enroll_and_lookup(ca):
    identity = ca.enroll("org0", "organization", seed=b"org0")
    certificate = ca.certificate_of("org0")
    assert certificate.identifier == "org0"
    assert certificate.role == "organization"
    assert certificate.public_key == identity.keypair.public_key


def test_duplicate_enrollment_rejected(ca):
    ca.enroll("org0", "organization")
    with pytest.raises(CryptoError):
        ca.enroll("org0", "client")


def test_unknown_identifier_lookup_raises(ca):
    with pytest.raises(CryptoError):
        ca.certificate_of("ghost")


def test_sign_and_verify_payload(ca):
    identity = ca.enroll("client0", "client")
    payload = {"amount": 10, "to": "org1"}
    signature = identity.sign(payload)
    assert ca.verify("client0", payload, signature)
    assert not ca.verify("client0", {"amount": 11, "to": "org1"}, signature)


def test_verify_unknown_identity_is_false(ca):
    assert not ca.verify("ghost", {"x": 1}, "00")


def test_cross_identity_verification_fails(ca):
    alice = ca.enroll("alice", "client")
    ca.enroll("bob", "client")
    signature = alice.sign({"x": 1})
    assert not ca.verify("bob", {"x": 1}, signature)


def test_revocation_blocks_verification(ca):
    client = ca.enroll("ddos", "client")
    signature = client.sign({"x": 1})
    assert ca.verify("ddos", {"x": 1}, signature)
    ca.revoke("ddos")
    assert ca.is_revoked("ddos")
    assert not ca.verify("ddos", {"x": 1}, signature)


def test_revoking_unknown_identity_raises(ca):
    with pytest.raises(CryptoError):
        ca.revoke("ghost")


def test_is_enrolled(ca):
    assert not ca.is_enrolled("y")
    ca.enroll("y", "client")
    assert ca.is_enrolled("y")
