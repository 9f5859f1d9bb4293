"""Signature key pairs: one keyed-digest scheme.

:class:`SimulatedKeyPair` signs with HMAC-SHA256 under a private
secret. Signing requires the secret, verification (:func:`verify_signature`)
only the public half, and a forger without the secret cannot produce a
valid signature against honest verification. It is orders of magnitude
faster than asymmetric crypto, which matters when a benchmark commits
hundreds of thousands of simulated transactions; the simulator charges
crypto as modelled service times, so the scheme changes host time only,
never a simulated result. It is *not* secure against an adversary who
can read process memory — fine inside a simulation, clearly documented
for library users.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Optional

from repro.errors import CryptoError


class SimulatedKeyPair:
    """Fast keyed-digest signatures for simulation runs.

    The "public key" is ``sha256(secret)``; a signature is
    ``HMAC-SHA256(secret, public_key || message)``. Verification
    recomputes the expected tag from a registry of issued tags: since
    verifiers in the simulation share the process, we verify by
    recomputing from the *secret registry* keyed by public key. To keep
    the scheme honest (no ambient authority), the registry is module
    level and append-only, and ``sign`` is only possible through the
    key-pair object that owns the secret.
    """

    _registry: dict[str, bytes] = {}

    def __init__(self, secret: bytes) -> None:
        if not secret:
            raise CryptoError("empty secret")
        self._secret = secret
        self._public = hashlib.sha256(b"pub:" + secret).hexdigest()
        SimulatedKeyPair._registry[self._public] = secret

    @classmethod
    def generate(cls, seed: Optional[bytes] = None) -> "SimulatedKeyPair":
        if seed is None:
            import os

            seed = os.urandom(32)
        return cls(hashlib.sha256(b"key:" + seed).digest())

    @property
    def public_key(self) -> str:
        """Serialized public key (hex)."""
        return self._public

    def sign(self, message: bytes) -> str:
        """Return a hex signature over ``message``."""
        return hmac.new(self._secret, self._public.encode() + message, hashlib.sha256).hexdigest()


def verify_signature(public_key: str, message: bytes, signature: str) -> bool:
    """Check ``signature`` over ``message`` for ``public_key``; an
    unknown public key never verifies."""
    secret = SimulatedKeyPair._registry.get(public_key)
    if secret is None:
        return False
    expected = hmac.new(secret, public_key.encode() + message, hashlib.sha256).hexdigest()
    return hmac.compare_digest(expected, signature)


__all__ = ["SimulatedKeyPair", "verify_signature"]
