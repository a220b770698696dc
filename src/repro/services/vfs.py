"""A tiny per-host virtual filesystem backing the ag_fs service.

Agents never touch a real filesystem in the simulation; ag_fs mediates
access to this in-memory store, with per-principal usage accounting and
an optional byte quota — the resource-allocation role the paper assigns
to service agents.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.errors import ServiceError


class VirtualFS:
    """Path → bytes, with quota enforcement."""

    def __init__(self, quota_bytes: Optional[int] = None):
        self._files: Dict[str, bytes] = {}
        self._owner: Dict[str, str] = {}
        self.quota_bytes = quota_bytes

    @staticmethod
    def _check_path(path: str) -> str:
        if not path.startswith("/") or ".." in path.split("/"):
            raise ServiceError(f"invalid path {path!r}")
        return path

    @property
    def used_bytes(self) -> int:
        return sum(len(data) for data in self._files.values())

    def write(self, path: str, data: bytes, owner: str = "system") -> None:
        path = self._check_path(path)
        new_usage = self.used_bytes - len(self._files.get(path, b"")) + \
            len(data)
        if self.quota_bytes is not None and new_usage > self.quota_bytes:
            raise ServiceError(
                f"quota exceeded: {new_usage} > {self.quota_bytes} bytes")
        self._files[path] = bytes(data)
        self._owner[path] = owner

    def read(self, path: str) -> bytes:
        path = self._check_path(path)
        try:
            return self._files[path]
        except KeyError:
            raise ServiceError(f"no such file {path!r}") from None

    def delete(self, path: str) -> bool:
        path = self._check_path(path)
        self._owner.pop(path, None)
        return self._files.pop(path, None) is not None

    def owner_of(self, path: str) -> Optional[str]:
        return self._owner.get(path)

    def listdir(self, prefix: str = "/") -> List[str]:
        prefix = self._check_path(prefix)
        return sorted(p for p in self._files if p.startswith(prefix))

    def stat(self, path: str) -> Dict[str, object]:
        data = self.read(path)
        return {"path": path, "size": len(data),
                "owner": self._owner.get(path, "system")}
