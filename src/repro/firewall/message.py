"""Message envelopes: what actually moves between agents and firewalls.

A message is a briefcase plus addressing metadata.  The briefcase is the
*only* application-visible part (the paper's minimal two-action interface:
send a briefcase / receive a briefcase); the envelope carries what the
reference monitor needs — who sent it, where it should go, and how long
it may wait in a queue for an absent receiver.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import DefaultDict, Dict, Optional

from repro.core.briefcase import Briefcase
from repro.core.uri import AgentUri
from repro.obs.propagation import TraceContext

#: Bytes of envelope/framing added to the encoded briefcase on the wire.
ENVELOPE_OVERHEAD_BYTES = 128

#: Default seconds a message may wait for its receiver (paper section 3.2:
#: "messages ... are queued with a timeout value").
DEFAULT_QUEUE_TIMEOUT = 30.0

#: A message forwarded more times than this is assumed to be looping
#: (misconfigured forwarding wrappers or routing) and is rejected.
MAX_HOPS = 32


@dataclass(frozen=True)
class SenderInfo:
    """What the firewall knows about a message's origin."""

    principal: str
    host: str
    uri: Optional[AgentUri] = None
    authenticated: bool = False

    @cached_property
    def unauthenticated(self) -> "SenderInfo":
        """The same origin with its claim left unproven: what a peer
        host knows of an unsigned arrival.  Built once per sender, not
        once per message."""
        return SenderInfo(self.principal, self.host, self.uri, False)


@dataclass(slots=True)
class Message:
    """One briefcase in flight."""

    target: AgentUri
    briefcase: Briefcase
    sender: SenderInfo
    queue_timeout: float = DEFAULT_QUEUE_TIMEOUT
    hops: int = 0
    #: Shedding priority: under the ``shed-priority`` overflow policy a
    #: bounded queue evicts lower-priority parked messages to make room
    #: for a higher-priority arrival.  Higher is more important.
    priority: int = 0
    #: Causal trace context (envelope metadata, like ``hops`` — zero
    #: wire bytes in-sim).  None whenever telemetry is disabled.
    trace: Optional[TraceContext] = None
    #: Per-sender monotonic delivery sequence, stamped once by the
    #: forwarding firewall (``seq_src`` names the stamping host) and
    #: reused across retries, so the receiver's dedup window can tell a
    #: retransmit from fresh traffic.  Envelope metadata in-sim; the
    #: reserved DELIVERY-SEQ folder on the raw wire.
    seq: Optional[int] = None
    seq_src: Optional[str] = None
    #: Unique landing id of a go/spawn transport (exactly-once
    #: migration; the reserved LANDING-ID folder on the raw wire).
    landing_id: Optional[str] = None

    def with_target(self, target: AgentUri) -> "Message":
        return Message(target, self.briefcase, self.sender,
                       self.queue_timeout, self.hops, self.priority,
                       self.trace, self.seq, self.seq_src,
                       self.landing_id)

    def snapshot_for_transport(self) -> "Message":
        """An independent copy whose briefcase is a snapshot."""
        return Message(target=self.target,
                       briefcase=self.briefcase.snapshot(),
                       sender=self.sender,
                       queue_timeout=self.queue_timeout,
                       hops=self.hops + 1,
                       priority=self.priority,
                       trace=self.trace,
                       seq=self.seq,
                       seq_src=self.seq_src,
                       landing_id=self.landing_id)


@dataclass
class DeliveryStats:
    """Firewall ``host``'s counters: the store the ``fw.*`` counters of
    :meth:`mirrors` are read from (nothing writes them)."""

    #: ``(fw.* counter, labels beside the host)`` → the tally it mirrors.
    MIRRORS = {("fw.delivered", ()): "delivered_live",
               ("fw.queue_flushed", ()): "delivered_flushed",
               ("fw.messages_queued", ()): "queued",
               ("fw.queue_expired", ()): "expired",
               ("fw.dropped_by_wrapper", ()): "dropped_by_wrapper",
               ("fw.dedup", (("outcome", "duplicate"),)): "duplicates"}
    #: The counter families :meth:`mirrors` feeds: those of
    #: :attr:`MIRRORS`, and two that only refusals feed.
    FAMILIES = (*(family for family, _ in MIRRORS), "fw.policy_rejected",
                "fw.rejected")

    host: str = ""
    #: Deliveries to a registered agent as the message arrived.
    delivered_live: int = 0
    #: Parked messages delivered when their target registered.
    delivered_flushed: int = 0
    queued: int = 0
    expired: int = 0
    forwarded_remote: int = 0
    received_remote: int = 0
    dropped_by_wrapper: int = 0
    #: Remote arrivals suppressed by the dedup window (acked, not
    #: re-delivered).
    duplicates: int = 0
    #: Refusal reason → count.
    rejections: DefaultDict[str, int] = field(
        default_factory=partial(defaultdict, int))

    @property
    def delivered(self) -> int:
        return self.delivered_live + self.delivered_flushed

    @property
    def rejected(self) -> int:
        return sum(self.rejections.values())

    def mirrors(self) -> Dict[tuple, int]:
        """``(family, label key)`` → tally for the ``fw.*`` counters
        (a collector's ``read``)."""
        key = (("host", self.host),)
        mirrors = {(family, key + labels): getattr(self, tally)
                   for (family, labels), tally in self.MIRRORS.items()}
        for reason, count in self.rejections.items():
            if reason == "policy":
                mirrors["fw.policy_rejected", key] = count
            elif reason == "dedup":
                mirrors["fw.dedup", key + (("outcome", "reject"),)] = count
            elif reason not in ("auth", "quota", "poison"):
                # Those are counted by families whose labels no tally
                # keeps (``fw.auth{outcome}``, ``fw.quota_rejected
                # {principal}``, ``fw.poison_quarantined{kind}``),
                # written where they happen.
                mirrors["fw.rejected", key + (("reason", reason),)] = count
        return mirrors
