"""A deterministic per-host virtual disk with fsync barriers.

The disk lives entirely in virtual time: an ``append`` lands in the
file's *unsynced* buffer, an ``fsync`` promotes it towards durability,
and a ``crash`` keeps only what was durable at the instant of the
crash.  Reads see the full logical content (the OS page-cache view);
after a crash the logical and durable views coincide.

Durability is not instantaneous by decree: with the
:class:`~repro.sim.faults.StorageFaults` slow-fsync fault a "completed"
fsync only becomes durable after a delay, so a crash inside that window
loses the acknowledged suffix — plus, optionally, a torn tail (the
first lost write survives as a partial prefix) and a lost durable
suffix (firmware that lied about an earlier fsync).  All fault rolls
come from the :class:`~repro.sim.faults.FaultInjector`'s seeded storage
stream, so crash damage is a pure function of the seed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


class _DiskFile:
    """One file: durable bytes + writes still waiting on durability."""

    __slots__ = ("durable", "pending", "unsynced")

    def __init__(self) -> None:
        self.durable = bytearray()
        #: fsynced writes not yet durable: ``(data, durable_at)``.
        self.pending: List[Tuple[bytes, float]] = []
        #: appended but never fsynced.
        self.unsynced: List[bytes] = []


class VirtualDisk:
    """Per-host durable storage with explicit fsync barriers."""

    def __init__(self, kernel: Any, host: str,
                 injector: Optional[Any] = None) -> None:
        self.kernel = kernel
        self.host = host
        #: Optional :class:`~repro.sim.faults.FaultInjector` rolling the
        #: seeded storage faults; ``None`` means honest, instant disks.
        self.injector = injector
        self._files: Dict[str, _DiskFile] = {}
        self.writes = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self.crashes = 0
        self.lost_writes = 0
        self.torn_tails = 0
        self.lost_suffix_bytes = 0

    def _file(self, name: str) -> _DiskFile:
        entry = self._files.get(name)
        if entry is None:
            entry = self._files[name] = _DiskFile()
        return entry

    def _settle(self, entry: _DiskFile) -> None:
        """Fold pending writes whose durability point has passed."""
        now = self.kernel.now
        while entry.pending and entry.pending[0][1] <= now:
            entry.durable += entry.pending.pop(0)[0]

    # -- the write path ------------------------------------------------------------

    def append(self, name: str, data: bytes) -> None:
        if not data:
            return
        self._file(name).unsynced.append(bytes(data))
        self.writes += 1
        self.bytes_written += len(data)

    def fsync(self, name: str) -> None:
        """Promote every unsynced write of ``name`` towards durability.

        With an honest disk the data is durable immediately; the
        slow-fsync fault defers the durability point, which only
        matters if a crash lands inside the window.
        """
        entry = self._file(name)
        self.fsyncs += 1
        if not entry.unsynced and not entry.pending:
            return
        delay = self.injector.fsync_delay(self.host) \
            if self.injector is not None else 0.0
        durable_at = self.kernel.now + delay
        for data in entry.unsynced:
            entry.pending.append((data, durable_at))
        entry.unsynced.clear()
        self._settle(entry)

    # -- reading -------------------------------------------------------------------

    def read(self, name: str) -> bytes:
        """The full logical content (durable + in-flight)."""
        entry = self._files.get(name)
        if entry is None:
            return b""
        self._settle(entry)
        parts = [bytes(entry.durable)]
        parts.extend(data for data, _ in entry.pending)
        parts.extend(entry.unsynced)
        return b"".join(parts)

    def delete(self, name: str) -> None:
        self._files.pop(name, None)

    def files(self) -> List[str]:
        return sorted(self._files)

    # -- crashing ------------------------------------------------------------------

    def crash(self) -> Dict[str, int]:
        """Lose everything not durable *now*; apply seeded crash faults.

        Files are damaged in sorted-name order so the storage stream is
        consumed deterministically.  Returns a damage summary.
        """
        self.crashes += 1
        lost = torn = suffix_bytes = 0
        for name in sorted(self._files):
            entry = self._files[name]
            self._settle(entry)
            at_risk = [data for data, _ in entry.pending]
            at_risk.extend(entry.unsynced)
            entry.pending.clear()
            entry.unsynced.clear()
            torn_keep: Optional[int] = None
            lost_suffix = 0
            if self.injector is not None:
                torn_keep, lost_suffix = \
                    self.injector.storage_crash_verdict(
                        self.host,
                        len(at_risk[0]) if at_risk else 0,
                        len(entry.durable))
            if at_risk:
                lost += len(at_risk)
                if torn_keep is not None:
                    entry.durable += at_risk[0][:torn_keep]
                    torn += 1
            if lost_suffix:
                del entry.durable[-lost_suffix:]
                suffix_bytes += lost_suffix
        self.lost_writes += lost
        self.torn_tails += torn
        self.lost_suffix_bytes += suffix_bytes
        return {"lost_writes": lost, "torn_tails": torn,
                "lost_suffix_bytes": suffix_bytes}

    def stats(self) -> Dict[str, int]:
        return {
            "files": len(self._files),
            "writes": self.writes,
            "bytes_written": self.bytes_written,
            "fsyncs": self.fsyncs,
            "crashes": self.crashes,
            "lost_writes": self.lost_writes,
            "torn_tails": self.torn_tails,
            "lost_suffix_bytes": self.lost_suffix_bytes,
        }
