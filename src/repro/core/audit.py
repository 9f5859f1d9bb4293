"""Receipt-based ledger auditing.

Section 4: "As the receipt contains the hash of the block, which is
dependent on the hash of previous blocks in the log, the organization
cannot modify the content of the transaction without destroying and
invalidating RCPT_i of TS_i and other transactions. The client can
archive the transaction's receipts for bookkeeping purposes."

This module implements the client-side half of that argument: given an
archived receipt and (read) access to the organization's ledger, an
auditor can verify that the block the receipt names is still intact —
any retroactive tampering at that organization is detected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.transaction import Proposal, Receipt
from repro.crypto.identity import CertificateAuthority
from repro.ledger.block import Block
from repro.ledger.ledger import Ledger


@dataclass(frozen=True)
class AuditFinding:
    """Outcome of auditing one receipt against one ledger."""

    receipt_valid: bool
    block_found: bool  # the receipted hash names a block logging this transaction
    chain_intact: bool
    detail: str = ""

    @property
    def clean(self) -> bool:
        return self.receipt_valid and self.block_found and self.chain_intact


def _logs(block: Block, receipt: Receipt) -> bool:
    """Whether ``block`` logs the receipted transaction with the
    receipted verdict (``RCPT_i`` names "the block containing
    ``TS_i``", Section 4, not merely some block of the log)."""
    if block.valid != receipt.valid:
        return False
    try:
        proposal = Proposal.from_wire(block.payload["proposal"])
    except (KeyError, TypeError, ValueError, AttributeError):
        return False
    return proposal.proposal_id == receipt.transaction_id


def audit_receipt(receipt: Receipt, ledger: Ledger, ca: CertificateAuthority) -> AuditFinding:
    """Check an archived receipt against an organization's ledger.

    Three things must hold:

    1. the receipt's signature verifies (it really came from the
       organization, about this transaction and block hash);
    2. a block with exactly the receipted hash exists in the ledger's
       log — recomputed from the block's current content, so any
       payload tampering changes the hash and the block "disappears" —
       and it logs the receipted transaction with the receipted
       verdict;
    3. the hash chain verifies end to end (tampering with *earlier*
       blocks is caught even when the receipted block itself is
       untouched).
    """
    payload = Receipt.signed_payload(receipt.transaction_id, receipt.block_hash, receipt.valid)
    receipt_valid = ca.verify(receipt.org_id, payload, receipt.signature)
    if not receipt_valid:
        return AuditFinding(False, False, False, "receipt signature does not verify")
    block = next((b for b in ledger.log if b.block_hash == receipt.block_hash), None)
    try:
        ledger.verify_integrity()
        chain_intact = True
        chain_detail = ""
    except Exception as exc:  # LedgerError: report what broke
        chain_intact = False
        chain_detail = str(exc)
    if block is None:
        return AuditFinding(
            True,
            False,
            chain_intact,
            "no block with the receipted hash exists (payload tampered or block dropped)",
        )
    if not _logs(block, receipt):
        return AuditFinding(
            True,
            False,
            chain_intact,
            "the receipted block does not log the receipted transaction and verdict",
        )
    return AuditFinding(True, True, chain_intact, chain_detail)


__all__ = ["AuditFinding", "audit_receipt"]
