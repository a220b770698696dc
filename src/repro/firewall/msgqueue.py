"""Pending-message queue: parking for messages whose receiver is absent.

Paper section 3.2: *"Messages passing through the firewall are queued
with a timeout value if the receiving agent is not ready to receive, or
has not yet arrived at the site."*  The second clause is what makes
itinerant agents addressable: a message can be sent *ahead* of the agent
and will be waiting when it lands.

Each queued message carries its own expiry; when an agent registers, the
firewall offers it every queued message and delivers the matching ones.
A queue keeps **one** kernel timer, armed for the earliest deadline
among its parked messages — a parked message is a list entry, not a
process — and messages that fall due at the same instant expire in the
order they were parked.

The queue is **bounded and backpressured**: configurable capacity in
both message count and encoded bytes (:class:`~repro.core.limits.
QueueLimits`), with a pluggable overflow policy —

- ``reject`` (default): new arrivals beyond capacity raise the
  *transient* :class:`~repro.core.errors.QueueFullError`, which the
  sender's :class:`~repro.core.retry.RetryPolicy` absorbs with backoff;
- ``drop-oldest``: the oldest parked messages are evicted (becoming
  ``evicted`` dead letters) to make room;
- ``shed-priority``: lower-priority parked messages are shed for a
  higher-priority arrival; equal-or-higher parked traffic rejects the
  newcomer.

Occupancy is exported as ``fw.queue_depth``/``fw.queue_bytes`` gauges
with ``fw.queue_peak_*`` high watermarks, and the accounting identity
``offered == accepted + rejected`` / ``accepted == claimed + expired +
crashed + evicted + len(queue)`` holds at every instant (property
tested).

Messages that leave the queue without being delivered do not vanish:
they become :class:`DeadLetter` records (reason ``expired``,
``host-crash``, or ``evicted``), retrievable through the firewall-admin
``stat`` operation and eligible for retransmission when the host
restarts (see :meth:`repro.firewall.firewall.Firewall.
retransmit_dead_letters`).  The dead-letter ledger itself is capped
(configurable ``dead_letter_limit``); trimming is *visible* — each
trimmed record increments ``fw.dead_letter_evictions`` and logs the
evicted message's sender and target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.errors import QueueFullError
from repro.core.limits import QueueLimits
from repro.core.uri import AgentUri
from repro.firewall.changes import ChangeStream
from repro.firewall.governor import (
    DEFAULT_DEAD_LETTER_LIMIT,
    OVERFLOW_DROP_OLDEST,
    OVERFLOW_POLICIES,
    OVERFLOW_REJECT,
    OVERFLOW_SHED_PRIORITY,
)
from repro.firewall.message import Message
from repro.obs.propagation import link_args
from repro.sim.eventloop import Event, Kernel

#: Retained dead-letter records per queue (kept as the historical name;
#: the limit is per-queue configurable now).
DEAD_LETTER_LIMIT = DEFAULT_DEAD_LETTER_LIMIT


@dataclass(eq=False)
class _Pending:
    """One parked message.  An entry is itself (``eq=False``): finding
    or removing it in the queue compares identities, never messages and
    briefcases field by field."""

    __slots__ = ("message", "enqueued_at", "expires_at", "wire_bytes",
                 "retransmits", "park_id", "span")

    message: Message
    enqueued_at: float
    expires_at: float
    wire_bytes: int
    #: Times this message has already been retransmitted after dying.
    retransmits: int
    #: Per-queue monotonic park id; park / claim / dead-letter change
    #: events (and so the write-ahead journal's records) are keyed by it.
    park_id: int
    span: object


@dataclass
class DeadLetter:
    """A parked message that left the queue undelivered."""

    message: Message
    enqueued_at: float
    died_at: float
    reason: str
    retransmits: int = 0
    park_id: int = 0

    def to_dict(self) -> dict:
        return {
            "target": str(self.message.target),
            "sender": self.message.sender.principal,
            "enqueued_at": self.enqueued_at,
            "died_at": self.died_at,
            "reason": self.reason,
            "retransmits": self.retransmits,
        }


class PendingQueue:
    """Messages waiting for a matching registration, with per-message TTL.

    Each parked message opens a ``fw.queue_wait`` span on the owning
    firewall's track (``host`` label), closed with the outcome —
    delivered, expired, evicted, or crashed — so queue residency is
    visible in traces.

    Expiry is one kernel :class:`~repro.sim.eventloop.Timeout` per
    queue, not a process per message: :meth:`park` arms it when the
    queue was empty or the new message falls due before the armed
    deadline, and when it fires every message due by then expires,
    oldest park first, and it is re-armed for the earliest deadline
    left.  The kernel has no cancel: a superseded timer, or one whose
    queue was emptied meanwhile, still fires — onto nothing.
    """

    def __init__(self, kernel: Kernel,
                 on_expire: Optional[Callable[[Message], None]] = None,
                 host: str = "",
                 limits: Optional[QueueLimits] = None,
                 overflow: str = OVERFLOW_REJECT,
                 dead_letter_limit: int = DEAD_LETTER_LIMIT,
                 changes: Optional[ChangeStream] = None):
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(f"unknown overflow policy {overflow!r}")
        if dead_letter_limit < 1:
            raise ValueError("dead_letter_limit must be positive")
        self.kernel = kernel
        self.on_expire = on_expire
        self.host = host
        self.limits = limits or QueueLimits()
        self.overflow = overflow
        self.dead_letter_limit = dead_letter_limit
        #: The tracer track of this queue's ``fw.queue_wait`` spans.
        self._track = f"fw:{host}"
        self._pending: List[_Pending] = []
        self._bytes = 0
        #: Parked bytes per sender principal (the governor's
        #: bytes-in-flight quota input), kept by every change of
        #: ``_pending``.
        self._principal_bytes: Dict[str, int] = {}
        #: The armed expiry timer and the deadline it was armed for,
        #: never later than any parked ``expires_at`` while a message
        #: is parked.  A timer this no longer names fires stale.
        self._timer: Optional[Event] = None
        self._timer_deadline = 0.0
        self.changes = changes if changes is not None else ChangeStream()
        #: Next park id (monotonic across restarts — replay re-anchors
        #: it from the journal).
        self.park_seq = 1
        self.expired_count = 0
        self.dead_letters: List[DeadLetter] = []
        self.dead_letter_evictions = 0
        # Accounting (the conservation invariant the property tests pin):
        # offered == accepted + rejected, and
        # accepted == claimed + expired + crashed + evicted + len(self).
        self.offered = 0
        self.accepted = 0
        self.rejected = 0
        self.evicted = 0
        self.claimed = 0
        self.crashed = 0
        #: Metric series held from their first write (the host label
        #: is fixed): the four depth / bytes gauges, and
        #: ``fw.queue_wait_seconds`` by outcome.
        self._watermarks: Optional[tuple] = None
        self._wait_seconds: dict = {}

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def bytes(self) -> int:
        """Encoded bytes currently parked."""
        return self._bytes

    def bytes_for_principal(self, principal: str) -> int:
        """Parked bytes owned by one sender principal (quota input)."""
        return self._principal_bytes.get(principal, 0)

    # -- telemetry helpers -----------------------------------------------------------

    def _update_watermarks(self) -> None:
        telemetry = self.kernel.telemetry
        if not telemetry.enabled:
            return
        series = self._watermarks
        if series is None:
            metrics = telemetry.metrics
            series = self._watermarks = tuple(
                metrics.gauge(name).labels(host=self.host)
                for name in ("fw.queue_depth", "fw.queue_bytes",
                             "fw.queue_peak_depth", "fw.queue_peak_bytes"))
        queue_depth, queue_bytes, peak_depth, peak_bytes = series
        depth = len(self._pending)
        queue_depth.set(depth)
        queue_bytes.set(self._bytes)
        peak_depth.set_max(depth)
        peak_bytes.set_max(self._bytes)

    # -- admission -------------------------------------------------------------------

    def _would_fit(self, extra_bytes: int) -> bool:
        return self.limits.admits(len(self._pending) + 1,
                                  self._bytes + extra_bytes)

    def _evict_entry(self, entry: _Pending, policy: str) -> None:
        self._pending.remove(entry)
        self._bytes -= entry.wire_bytes
        self._principal_bytes[entry.message.sender.principal] -= \
            entry.wire_bytes
        self.evicted += 1
        self._observe_wait(entry, "evicted")
        self._dead_letter(entry, "evicted")
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.metrics.inc("fw.queue_evictions", host=self.host,
                                  policy=policy)

    def _reject(self, message: Message, wire_bytes: int,
                reason: str) -> None:
        self.offered += 1
        self.rejected += 1
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.metrics.inc("fw.queue_rejected", host=self.host,
                                  policy=self.overflow)
        if self.changes.sinks:
            self.changes.emit("queue-reject", target=str(message.target))
        raise QueueFullError(
            f"pending queue at {self.host or '?'} is full "
            f"({len(self._pending)} msgs / {self._bytes} bytes; "
            f"{reason}; message for {message.target} was {wire_bytes} "
            f"bytes)")

    def _make_room(self, message: Message, wire_bytes: int) -> None:
        """Apply the overflow policy; raises or evicts until it fits."""
        alone_fits = self.limits.admits(1, wire_bytes)
        if self.overflow == OVERFLOW_REJECT or not alone_fits:
            self._reject(message, wire_bytes,
                         "policy rejects new arrivals" if alone_fits
                         else "message alone exceeds the queue capacity")
        if self.overflow == OVERFLOW_DROP_OLDEST:
            while self._pending and not self._would_fit(wire_bytes):
                self._evict_entry(self._pending[0], OVERFLOW_DROP_OLDEST)
            return
        # shed-priority: evict strictly lower-priority entries
        # (lowest priority first, oldest first within a priority).
        while not self._would_fit(wire_bytes):
            sheddable = [e for e in self._pending
                         if e.message.priority < message.priority]
            if not sheddable:
                self._reject(message, wire_bytes,
                             "no lower-priority traffic to shed")
            victim = min(sheddable,
                         key=lambda e: (e.message.priority, e.enqueued_at))
            self._evict_entry(victim, OVERFLOW_SHED_PRIORITY)

    def park(self, message: Message, retransmits: int = 0,
             wire_bytes: Optional[int] = None) -> None:
        """Queue a message until a receiver appears or the TTL runs out.

        Raises :class:`~repro.core.errors.QueueFullError` when the queue
        is bounded, full, and the overflow policy cannot make room.
        """
        if wire_bytes is None:
            from repro.core import codec
            wire_bytes = codec.encoded_size(message.briefcase)
        if self.limits.bounded and not self._would_fit(wire_bytes):
            self._make_room(message, wire_bytes)
        # Counted once the verdict is in (``_reject`` counts its own):
        # the evictions ``_make_room`` announces must not see an offer
        # that is neither accepted nor rejected yet.
        self.offered += 1
        self.accepted += 1
        kernel = self.kernel
        # The clock's field, not the ``now`` property: a park that arms
        # no timer spends no frame in the kernel.
        now = kernel._now
        expires_at = now + message.queue_timeout
        tracer = kernel.telemetry.tracer
        entry = _Pending(
            message, now, expires_at, wire_bytes, retransmits, self.park_seq,
            tracer.begin(
                "fw.queue_wait", category="fw", track=self._track,
                target=str(message.target), **link_args(message.trace))
            if tracer.enabled else None)
        self.park_seq += 1
        self._pending.append(entry)
        self._bytes += wire_bytes
        principal = message.sender.principal
        totals = self._principal_bytes
        totals[principal] = totals.get(principal, 0) + wire_bytes
        if self.changes.sinks:
            self.changes.emit(
                "queue-park", message=message, park=entry.park_id,
                expires_at=expires_at, retransmits=retransmits)
        self._update_watermarks()
        # A queue that was empty has no timer worth keeping: whatever
        # was armed for the messages that left it fires stale.
        if len(self._pending) == 1 or expires_at < self._timer_deadline:
            self._arm(expires_at)

    def _observe_wait(self, entry: _Pending, outcome: str) -> None:
        telemetry = self.kernel.telemetry
        if entry.span is not None:
            entry.span.end(outcome=outcome)
        if telemetry.enabled:
            series = self._wait_seconds.get(outcome)
            if series is None:
                series = self._wait_seconds[outcome] = \
                    telemetry.metrics.histogram(
                        "fw.queue_wait_seconds").labels(
                            host=self.host, outcome=outcome)
            series.observe(self.kernel._now - entry.enqueued_at)

    def _dead_letter(self, entry: _Pending, reason: str) -> DeadLetter:
        record = DeadLetter(message=entry.message,
                            enqueued_at=entry.enqueued_at,
                            died_at=self.kernel.now, reason=reason,
                            retransmits=entry.retransmits,
                            park_id=entry.park_id)
        self.dead_letters.append(record)
        changes = self.changes
        if changes.sinks:
            changes.emit("queue-dead-letter", park=entry.park_id,
                         reason=reason)
            if entry.message.landing_id:
                # A migration transport died in this queue: the departing
                # agent it carried is accounted for, not silently lost.
                changes.emit("transport-lost",
                             landing=entry.message.landing_id)
        telemetry = self.kernel.telemetry
        if len(self.dead_letters) > self.dead_letter_limit:
            trimmed = self.dead_letters.pop(0)
            self.dead_letter_evictions += 1
            if changes.sinks:
                changes.emit("dead-letter-evict", park=trimmed.park_id)
            if telemetry.enabled:
                telemetry.metrics.inc("fw.dead_letter_evictions",
                                      host=self.host)
        if telemetry.enabled:
            telemetry.metrics.inc("fw.dead_letters", host=self.host,
                                  reason=reason)
        return record

    def _arm(self, deadline: float) -> None:
        """Point the queue's one expiry timer at ``deadline``."""
        kernel = self.kernel
        self._timer = kernel.timeout(deadline - kernel._now)
        self._timer_deadline = deadline
        self._timer.add_callback(self._on_timer)

    def _on_timer(self, timer: Event) -> None:
        """Expire what is due, oldest park first; re-arm for the rest."""
        if timer is not self._timer:
            return
        self._timer = None
        # The timer fires at ``armed_at + (deadline - armed_at)``, which
        # can round to an ulp short of ``deadline``: the message it was
        # armed for is due when its timer fires, whatever the clock says.
        due = max(self.kernel.now, self._timer_deadline)
        for entry in [e for e in self._pending if e.expires_at <= due]:
            # One at a time, as separate timers would: a change sink
            # that snapshots the queue at this entry's dead letter
            # still finds the later ones parked.
            self._pending.remove(entry)
            self._bytes -= entry.wire_bytes
            self._principal_bytes[entry.message.sender.principal] -= \
                entry.wire_bytes
            self.expired_count += 1
            self._observe_wait(entry, "expired")
            self._dead_letter(entry, "expired")
            self._update_watermarks()
            if self.on_expire is not None:
                self.on_expire(entry.message)
        if self._pending:
            self._arm(min(entry.expires_at for entry in self._pending))

    def claim(self, accepts: Callable[[AgentUri], bool]) -> List[Message]:
        """Remove and return all queued messages whose target the new
        registration ``accepts`` (oldest first)."""
        claimed, remaining, released = [], [], 0
        totals = self._principal_bytes
        for entry in self._pending:
            message = entry.message
            if accepts(message.target):
                claimed.append(entry)
                released += entry.wire_bytes
                totals[message.sender.principal] -= entry.wire_bytes
            else:
                remaining.append(entry)
        self._pending = remaining
        self.claimed += len(claimed)
        self._bytes -= released
        messages = []
        for entry in claimed:
            # Announced after the whole claim left the queue: a snapshot
            # triggered by one of these events must not still hold the
            # entries the later ones take out.
            if self.changes.sinks:
                self.changes.emit("queue-claim", park=entry.park_id)
            self._observe_wait(entry, "delivered")
            messages.append(entry.message)
        if claimed:
            self._update_watermarks()
        return messages

    def crash_flush(self) -> List[DeadLetter]:
        """Host crash: every parked message becomes a dead letter."""
        crashed, self._pending = self._pending, []
        self._bytes = 0
        self._principal_bytes = {}
        records = []
        for entry in crashed:
            self.crashed += 1
            self._observe_wait(entry, "crashed")
            records.append(self._dead_letter(entry, "host-crash"))
        if records:
            self._update_watermarks()
        return records

    def take_retransmittable(self,
                             max_retransmits: int = 2) -> List[DeadLetter]:
        """Remove and return dead letters still eligible for another try."""
        eligible, remaining = [], []
        for record in self.dead_letters:
            if record.retransmits < max_retransmits:
                eligible.append(record)
            else:
                remaining.append(record)
        self.dead_letters = remaining
        if self.changes.sinks:
            for record in eligible:
                self.changes.emit("dead-letter-take", park=record.park_id)
        return eligible

    def dead_letter_records(self) -> List[dict]:
        return [record.to_dict() for record in self.dead_letters]

    # -- durability ------------------------------------------------------------------

    def parked_entries(self) -> List[_Pending]:
        """The open parks, oldest first (durable-snapshot input)."""
        return list(self._pending)

    def restore_durable(self, counters: dict, dead_letters: List[DeadLetter],
                        park_seq: int) -> None:
        """Durability-API transition: replace this queue's state with the
        image replayed from a write-ahead journal.

        The process that owned the live parks died with the host; replay
        turns them into ``host-crash`` dead letters, so the restored
        queue starts empty but with the ledger and the accounting
        counters intact.  Only :mod:`repro.durability.recovery` calls
        this (lint rule DUR001 guards other writers).
        """
        self._pending = []
        self._bytes = 0
        self._principal_bytes = {}
        self.offered = int(counters.get("offered", 0))
        self.accepted = int(counters.get("accepted", 0))
        self.rejected = int(counters.get("rejected", 0))
        self.claimed = int(counters.get("claimed", 0))
        self.expired_count = int(counters.get("expired", 0))
        self.crashed = int(counters.get("crashed", 0))
        self.evicted = int(counters.get("evicted", 0))
        self.dead_letter_evictions = int(
            counters.get("dead_letter_evictions", 0))
        self.dead_letters = list(dead_letters)
        self.park_seq = max(self.park_seq, int(park_seq))
        self._update_watermarks()

    def accounting(self) -> dict:
        """The conservation counters (see the class docstring)."""
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "claimed": self.claimed,
            "expired": self.expired_count,
            "crashed": self.crashed,
            "evicted": self.evicted,
            "parked_now": len(self._pending),
            "parked_bytes": self._bytes,
            "dead_letter_evictions": self.dead_letter_evictions,
        }
