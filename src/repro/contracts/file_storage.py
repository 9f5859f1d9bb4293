"""Trusted distributed file storage (the OrderlessFile PoC).

Files are content-addressed: a file entry maps a path to the hash of
its content plus per-writer version registers. Storing a file under a
fresh content hash never conflicts; concurrent writes to the same path
surface as multiple values on the path's register (the application can
then present both versions, like a sync service's conflict files).
"""

from __future__ import annotations

from typing import Any, List

from repro.core.contract import (
    ContractContext,
    SmartContract,
    modify_function,
    read_function,
)
from repro.crypto.hashing import sha256_hex
from repro.errors import ContractError


def volume_object_id(volume: str) -> str:
    return f"orderlessfile/{volume}"


class FileStorageContract(SmartContract):
    """Store and read content-addressed file metadata."""

    contract_id = "file_storage"

    @modify_function
    def put_file(
        self, ctx: ContractContext, volume: str, path: str, content_hash: str, size: int
    ) -> None:
        """Publish a new version of ``path`` (content already uploaded)."""
        if not content_hash:
            raise ContractError("content_hash required (content-addressed store)")
        if size < 0:
            raise ContractError(f"size must be non-negative, got {size}")
        ctx.assign_value(
            volume_object_id(volume),
            {"hash": content_hash, "size": size, "writer": ctx.client_id},
            path=("files", path),
        )
        ctx.add_value(volume_object_id(volume), 1, path=("stats", "writes"))

    @modify_function
    def delete_file(self, ctx: ContractContext, volume: str, path: str) -> None:
        """Delete ``path`` (null value: CRDT deletion)."""
        ctx.assign_value(volume_object_id(volume), None, path=("files", path))

    @read_function
    def stat_file(self, ctx: ContractContext, volume: str, path: str) -> Any:
        """Current version(s) of ``path``; a list means a write conflict."""
        return ctx.state.read(volume_object_id(volume), ("files", path))

    @read_function
    def list_files(self, ctx: ContractContext, volume: str) -> List[str]:
        """Paths currently present in the volume."""
        files = ctx.state.read(volume_object_id(volume), ("files",))
        if not isinstance(files, dict):
            return []
        return sorted(path for path, value in files.items() if value is not None)

    @staticmethod
    def content_hash(content: bytes) -> str:
        """Helper for clients: the content address of ``content``."""
        return sha256_hex(content)


__all__ = ["FileStorageContract", "volume_object_id"]
