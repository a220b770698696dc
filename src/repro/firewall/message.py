"""Message envelopes: what actually moves between agents and firewalls.

A message is a briefcase plus addressing metadata.  The briefcase is the
*only* application-visible part (the paper's minimal two-action interface:
send a briefcase / receive a briefcase); the envelope carries what the
reference monitor needs — who sent it, where it should go, and how long
it may wait in a queue for an absent receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


@dataclass
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
    """Firewall-level counters."""

    delivered: int = 0
    queued: int = 0
    expired: int = 0
    rejected: int = 0
    forwarded_remote: int = 0
    received_remote: int = 0
    dropped_by_wrapper: int = 0
    #: Remote arrivals suppressed by the dedup window (acked, not
    #: re-delivered).
    duplicates: int = 0
