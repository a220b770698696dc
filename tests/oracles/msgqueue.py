"""The pending queue with one watcher per parked message: the oracle
``PendingQueue``'s one expiry timer is tested against.

``park``'s tail and ``_expiry_watch`` are transcribed from the queue as
it stood before the timer: every parked message spawns a
``queue-ttl:*`` process that sleeps on its own ``Timeout`` and, if the
entry is still parked when it wakes, expires it.  Everything else —
admission, overflow policies, ``claim``, ``crash_flush``,
``restore_durable``, the dead-letter ledger, the accounting — is the
product's own code, inherited: only the expiry mechanism differs, so a
difference in any expiry instant, order, counter, change record or
metric is the timer's.  (The product entry lost its write-only
``expired`` flag with the watcher; the one line that set it is the only
line not carried over.)

``bytes_for_principal`` is the scan over the parked entries that the
product replaced with a running total per principal.  ``park`` still
adds to that total, because the inherited ``claim`` / eviction paths
subtract from it; the oracle itself never reads it.
"""

from typing import Optional

from repro.firewall.message import Message
from repro.firewall.msgqueue import PendingQueue, _Pending
from repro.obs.propagation import link_args


class ReferencePendingQueue(PendingQueue):
    def bytes_for_principal(self, principal: str) -> int:
        return sum(entry.wire_bytes for entry in self._pending
                   if entry.message.sender.principal == principal)

    def park(self, message: Message, retransmits: int = 0,
             wire_bytes: Optional[int] = None) -> None:
        if wire_bytes is None:
            from repro.core import codec
            wire_bytes = codec.encoded_size(message.briefcase)
        if self.limits.bounded and not self._would_fit(wire_bytes):
            self._make_room(message, wire_bytes)
        self.offered += 1
        self.accepted += 1
        entry = _Pending(
            message=message,
            enqueued_at=self.kernel.now,
            expires_at=self.kernel.now + message.queue_timeout,
            wire_bytes=wire_bytes,
            retransmits=retransmits,
            park_id=self.park_seq,
            span=None)
        self.park_seq += 1
        entry.span = self.kernel.telemetry.tracer.begin(
            "fw.queue_wait", category="fw", track=f"fw:{self.host}",
            target=str(message.target), **link_args(message.trace))
        self._pending.append(entry)
        self._bytes += wire_bytes
        principal = message.sender.principal
        self._principal_bytes[principal] = \
            self._principal_bytes.get(principal, 0) + wire_bytes
        if self.changes.sinks:
            self.changes.emit(
                "queue-park", message=message, park=entry.park_id,
                expires_at=entry.expires_at, retransmits=retransmits)
        self._update_watermarks()
        self.kernel.spawn(self._expiry_watch(entry),
                          name=f"queue-ttl:{message.target}")

    def _expiry_watch(self, entry: _Pending):
        yield self.kernel.timeout(entry.expires_at - self.kernel.now)
        if entry in self._pending:
            self._pending.remove(entry)
            self._bytes -= entry.wire_bytes
            self.expired_count += 1
            self._observe_wait(entry, "expired")
            self._dead_letter(entry, "expired")
            self._update_watermarks()
            if self.on_expire is not None:
                self.on_expire(entry.message)
