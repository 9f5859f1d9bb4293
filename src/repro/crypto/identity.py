"""Identities and the permissioned network's trust anchor.

Every organization and client in OrderlessChain has a unique identifier
and a key pair, and "the identity of each organization is known to
every other organization and client" (Section 3). The
:class:`CertificateAuthority` models the membership service that issues
and distributes those identities; it is also the hook for revoking a
Byzantine client's permissions (Section 8 countermeasure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import CryptoError
from repro.crypto.hashing import canonical_bytes
from repro.crypto.keys import SimulatedKeyPair, verify_signature


@dataclass(frozen=True)
class Certificate:
    """A public record binding an identifier to a public key."""

    identifier: str
    role: str  # "organization" | "client" | "orderer" | "sequencer" | "leader"
    public_key: str


@dataclass
class Identity:
    """A private identity: certificate plus the signing key."""

    certificate: Certificate
    keypair: SimulatedKeyPair = field(repr=False)

    @property
    def identifier(self) -> str:
        return self.certificate.identifier

    @property
    def role(self) -> str:
        return self.certificate.role

    def sign(self, payload: Any) -> str:
        """Sign the canonical encoding of ``payload``."""
        return self.keypair.sign(canonical_bytes(payload))


class CertificateAuthority:
    """Issues identities and verifies signatures network-wide.

    The CA is the simulation's stand-in for the membership service
    provider of a permissioned blockchain: enrolment, lookup, signature
    verification, and revocation.
    """

    #: Upper bound on memoized verification outcomes per CA instance.
    VERIFY_CACHE_MAX = 65536

    def __init__(self) -> None:
        self._certificates: Dict[str, Certificate] = {}
        self._revoked: set[str] = set()
        # Bumped by every enrol and revoke: a verdict reached under one
        # epoch (Organization.validate_transaction's memo) is stale in
        # the next.
        self.epoch = 0
        # (signer, canonical payload bytes, signature) -> bool. The key
        # is content-addressed, so a forged or tampered signature (or
        # payload) can never alias a cached valid outcome; revocation is
        # checked before the cache so revoking takes effect immediately.
        self._verify_cache: Dict[tuple, bool] = {}
        self.verify_cache_hits = 0
        self.verify_cache_misses = 0

    def enroll(self, identifier: str, role: str, seed: Optional[bytes] = None) -> Identity:
        """Issue a new identity; identifiers must be unique."""
        if identifier in self._certificates:
            raise CryptoError(f"identifier {identifier!r} already enrolled")
        keypair = SimulatedKeyPair.generate(seed)
        certificate = Certificate(identifier, role, keypair.public_key)
        self._certificates[identifier] = certificate
        self.epoch += 1
        return Identity(certificate, keypair)

    def certificate_of(self, identifier: str) -> Certificate:
        try:
            return self._certificates[identifier]
        except KeyError:
            raise CryptoError(f"unknown identifier {identifier!r}") from None

    def is_enrolled(self, identifier: str) -> bool:
        return identifier in self._certificates

    def revoke(self, identifier: str) -> None:
        """Revoke an identity (e.g., a DDoS-ing Byzantine client)."""
        if identifier not in self._certificates:
            raise CryptoError(f"unknown identifier {identifier!r}")
        self._revoked.add(identifier)
        self.epoch += 1

    def is_revoked(self, identifier: str) -> bool:
        return identifier in self._revoked

    def verify(self, identifier: str, payload: Any, signature: str) -> bool:
        """Check ``signature`` over ``payload`` by ``identifier``.

        Returns ``False`` for unknown or revoked identities and for
        signatures that do not verify — callers treat all three the
        same way (the message is not trustworthy).
        """
        certificate = self._certificates.get(identifier)
        if certificate is None or identifier in self._revoked:
            return False
        message = canonical_bytes(payload)
        key = (identifier, message, signature)
        cached = self._verify_cache.get(key)
        if cached is not None:
            self.verify_cache_hits += 1
            return cached
        self.verify_cache_misses += 1
        result = verify_signature(certificate.public_key, message, signature)
        if len(self._verify_cache) >= self.VERIFY_CACHE_MAX:
            self._verify_cache.clear()
        self._verify_cache[key] = result
        return result


__all__ = ["Certificate", "Identity", "CertificateAuthority"]
