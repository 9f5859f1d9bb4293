"""Network messages."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_message_ids = itertools.count()


@dataclass(slots=True)
class Message:
    """A message in flight between two nodes.

    ``body`` is a plain (wire-form) structure; ``size_bytes`` drives the
    bandwidth-proportional component of the link delay; ``corrupted``
    marks in-transit corruption — receivers see garbage that fails
    signature verification.
    """

    sender: str
    recipient: str
    msg_type: str
    body: Any
    size_bytes: int = 256
    corrupted: bool = False
    message_id: int = field(default_factory=lambda: next(_message_ids))

    def clone(self) -> "Message":
        """A duplicate delivery of the same logical message."""
        return Message(
            sender=self.sender,
            recipient=self.recipient,
            msg_type=self.msg_type,
            body=self.body,
            size_bytes=self.size_bytes,
            corrupted=self.corrupted,
        )


__all__ = ["Message"]
