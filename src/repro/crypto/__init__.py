"""PKI substrate: hashing, key pairs, identities, and signatures.

OrderlessChain authenticates every message with digital signatures
under a standard PKI (Section 4). This package provides:

* :mod:`repro.crypto.hashing` — canonical SHA-256 hashing of structured
  payloads (used for write-sets, blocks, and the hash-chain log);
* :mod:`repro.crypto.keys` — the one signature scheme, a fast
  keyed-digest scheme (crypto costs are modelled service times, so the
  scheme changes host time only, never a simulated result);
* :mod:`repro.crypto.identity` — identities and the certificate
  authority that anchors trust in the permissioned network.
"""

from repro.crypto.hashing import canonical_bytes, sha256_hex
from repro.crypto.identity import CertificateAuthority, Identity
from repro.crypto.keys import SimulatedKeyPair, verify_signature

__all__ = [
    "CertificateAuthority",
    "Identity",
    "SimulatedKeyPair",
    "canonical_bytes",
    "sha256_hex",
    "verify_signature",
]
