"""Tests for the keyed-digest signature scheme."""

import pytest

from repro.crypto.keys import SimulatedKeyPair, verify_signature
from repro.errors import CryptoError


class TestSimulatedScheme:
    def test_sign_verify_roundtrip(self):
        key = SimulatedKeyPair.generate(seed=b"alice")
        signature = key.sign(b"message")
        assert verify_signature(key.public_key, b"message", signature)

    def test_wrong_message_fails(self):
        key = SimulatedKeyPair.generate(seed=b"alice")
        signature = key.sign(b"message")
        assert not verify_signature(key.public_key, b"other", signature)

    def test_wrong_key_fails(self):
        alice = SimulatedKeyPair.generate(seed=b"alice")
        bob = SimulatedKeyPair.generate(seed=b"bob")
        signature = alice.sign(b"message")
        assert not verify_signature(bob.public_key, b"message", signature)

    def test_unknown_public_key_fails(self):
        assert not verify_signature("f" * 64, b"message", "0" * 64)

    def test_deterministic_from_seed(self):
        a = SimulatedKeyPair.generate(seed=b"same")
        b = SimulatedKeyPair.generate(seed=b"same")
        assert a.public_key == b.public_key

    def test_forged_signature_fails(self):
        key = SimulatedKeyPair.generate(seed=b"victim")
        forged = "0" * 64
        assert not verify_signature(key.public_key, b"message", forged)

    def test_empty_secret_rejected(self):
        with pytest.raises(CryptoError):
            SimulatedKeyPair(b"")


class TestFactory:
    def test_verify_dispatch(self):
        # verify_signature finds the secret by public key, so a key pair
        # regenerated from the same seed verifies the first one's signatures.
        key = SimulatedKeyPair.generate(seed=b"x")
        signature = key.sign(b"m")
        again = SimulatedKeyPair.generate(seed=b"x")
        assert again.sign(b"m") == signature
        assert verify_signature(again.public_key, b"m", signature)
        assert not verify_signature(again.public_key, b"m", signature[::-1])
