"""The per-host write-ahead journal: framed records on a virtual disk.

Every state-changing delivery event on a durable host — agent
arrive/depart, dedup-window advances, landing transitions, dead-letter
parking and retransmission, checkpoint blobs — is appended as one
framed record and fsynced *before* the state change is considered
durable (write-ahead discipline).  A record frame is::

    4 bytes big-endian payload length
    4 bytes big-endian CRC-32 of the payload
    payload: canonical JSON (sorted keys, compact separators)

Replay walks frames until the bytes run out; a truncated header, an
impossible length, or a CRC mismatch ends replay *cleanly* at the last
good record — that is the torn-tail contract: a crash mid-write costs
at most the record being written, never the journal behind it.

Snapshots bound replay work: every ``snapshot_interval`` records the
journal writes the host's full durable state as the first record of a
*new* segment, then appends a ``switch`` record to the manifest (its
own tiny framed journal).  Recovery reads the manifest, takes the last
durable ``switch``, and replays only the active segment — a crash
mid-compaction simply leaves the manifest pointing at the old segment.
The previous segment is retained (a lost-suffix fault can orphan the
newest ``switch``); older ones are deleted.
"""

from __future__ import annotations

import base64
import json
import struct
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import codec
from repro.durability.store import VirtualDisk

_FRAME = struct.Struct(">II")

#: Replay refuses single records larger than this (a corrupted length
#: field must not provoke a giant allocation).
MAX_RECORD_BYTES = 4 * 1024 * 1024

#: Durable-state snapshot cadence, in records since the last snapshot.
DEFAULT_SNAPSHOT_INTERVAL = 256

MANIFEST = "MANIFEST"


def frame_record(body: Dict[str, Any]) -> bytes:
    """One framed record: length + CRC-32 + canonical JSON."""
    payload = json.dumps(body, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def iter_frames(data: bytes) -> Tuple[List[Dict[str, Any]], bool]:
    """Decode framed records; returns ``(records, torn)``.

    ``torn`` is True when trailing bytes did not form a whole, checksummed
    record — the expected shape of a crash mid-append.
    """
    records: List[Dict[str, Any]] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _FRAME.size:
            return records, True
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if length > MAX_RECORD_BYTES or start + length > total:
            return records, True
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            return records, True
        try:
            body = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return records, True
        records.append(body)
        offset = start + length
    return records, False


def encode_briefcase_blob(briefcase: Any) -> str:
    """A briefcase as a journal-safe base64 string of its wire bytes."""
    return base64.b64encode(codec.encode(briefcase)).decode("ascii")


def decode_briefcase_blob(blob: str) -> Any:
    return codec.decode(base64.b64decode(blob.encode("ascii")))


class HostJournal:
    """The write-ahead journal of one durable host."""

    def __init__(self, disk: VirtualDisk, host: str,
                 telemetry: Optional[Any] = None,
                 snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL
                 ) -> None:
        if snapshot_interval < 1:
            raise ValueError("snapshot_interval must be positive")
        self.disk = disk
        self.host = host
        self.telemetry = telemetry
        self.snapshot_interval = snapshot_interval
        #: Provides the full durable state for snapshots (set by
        #: :class:`~repro.durability.recovery.HostDurability`).
        self.state_provider: \
            Optional[Callable[[], Dict[str, Any]]] = None
        self.suspended = False
        self.records_written = 0
        self.snapshots = 0
        self.replays = 0
        self.torn_tails_seen = 0
        self._segment_index = 0
        self._records_since_snapshot = 0
        self._compacting = False

    # -- segment bookkeeping -------------------------------------------------------

    @staticmethod
    def _segment_name(index: int) -> str:
        return f"segment-{index:06d}.wal"

    def active_segment(self) -> str:
        """The segment the manifest's last durable ``switch`` names."""
        records, _ = iter_frames(self.disk.read(MANIFEST))
        segment = self._segment_name(0)
        for record in records:
            if record.get("kind") == "switch" and record.get("segment"):
                segment = record["segment"]
        return segment

    # -- writing -------------------------------------------------------------------

    def suspend(self) -> None:
        """Stop journaling (the host is crashing: the in-memory
        bookkeeping that follows must not look durable)."""
        self.suspended = True

    def resume(self) -> None:
        self.suspended = False

    def record(self, kind: str, **fields: Any) -> None:
        """Append one record and fsync it (the write-ahead barrier)."""
        if self.suspended:
            return
        body: Dict[str, Any] = {"kind": kind, "t": self.disk.kernel.now}
        body.update(fields)
        segment = self._segment_name(self._segment_index)
        self.disk.append(segment, frame_record(body))
        self.disk.fsync(segment)
        self.records_written += 1
        self._records_since_snapshot += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.metrics.inc("durability.records",
                                       host=self.host, record=kind)
        if (self.state_provider is not None and not self._compacting and
                self._records_since_snapshot >= self.snapshot_interval):
            self.compact()

    def compact(self) -> None:
        """Open a new segment headed by a full-state snapshot.

        Write order is the crash-safety argument: the snapshot segment
        is fsynced *before* the manifest switch, so a crash at any point
        leaves the manifest naming a complete segment.
        """
        if self.suspended or self.state_provider is None:
            return
        self._compacting = True
        try:
            state = self.state_provider()
            self._segment_index += 1
            segment = self._segment_name(self._segment_index)
            self.disk.append(segment, frame_record(
                {"kind": "snapshot", "t": self.disk.kernel.now,
                 "state": state}))
            self.disk.fsync(segment)
            self.disk.append(MANIFEST, frame_record(
                {"kind": "switch", "t": self.disk.kernel.now,
                 "segment": segment}))
            self.disk.fsync(MANIFEST)
            # Keep the previous segment: a lost-suffix fault can orphan
            # the newest switch record, falling recovery back one step.
            for name in self.disk.files():
                if name.startswith("segment-") and \
                        name < self._segment_name(self._segment_index - 1):
                    self.disk.delete(name)
            self._records_since_snapshot = 0
            self.snapshots += 1
            if self.telemetry is not None and self.telemetry.enabled:
                self.telemetry.metrics.inc("durability.snapshots",
                                           host=self.host)
        finally:
            self._compacting = False

    # -- reading -------------------------------------------------------------------

    def read_active(self) -> Tuple[List[Dict[str, Any]], bool, str]:
        """Decode the active segment without counting a replay."""
        segment = self.active_segment()
        records, torn = iter_frames(self.disk.read(segment))
        return records, torn, segment

    def replay(self) -> Tuple[List[Dict[str, Any]], bool, str]:
        """The recovery-time read: also re-anchors segment numbering so
        post-recovery compaction continues monotonically."""
        records, torn, segment = self.read_active()
        try:
            self._segment_index = int(segment.split("-")[1].split(".")[0])
        except (IndexError, ValueError):
            pass
        self._records_since_snapshot = 0
        self.replays += 1
        if torn:
            self.torn_tails_seen += 1
        return records, torn, segment

    def stats(self) -> Dict[str, object]:
        return {
            "records_written": self.records_written,
            "snapshots": self.snapshots,
            "replays": self.replays,
            "torn_tails_seen": self.torn_tails_seen,
            "active_segment": self.active_segment(),
            "snapshot_interval": self.snapshot_interval,
        }
