"""The TAX firewall: per-host reference monitor and communication broker.

Paper section 3.2.  Each host runs exactly one firewall; it

- mediates **all** communication between local VMs and to remote
  firewalls, enforcing the access policy as it does so;
- performs **initial authentication** of arriving agents (signed agent
  core, or the claimed principal left unauthenticated);
- **queues** messages (with a timeout) when the receiver is not ready or
  has not yet arrived;
- resolves **partially-specified names** (see
  :mod:`repro.firewall.routing`);
- supports **admin operations** — listing, stat'ing, stopping and killing
  agents — via messages addressed to the firewall itself (see
  :mod:`repro.firewall.admin`).

In the original system the firewall was a multi-threaded Unix process
with one thread per VM; here each firewall is an object whose methods run
inside the calling agent's simulation process, with queueing and TTLs
delegated to kernel events.  The serialization boundary is real: every
remote message is charged for its encoded briefcase size on the wire.

Byte-accounting is cache-backed: the ``codec.encoded_size`` calls on the
send path (governor admission in :meth:`Firewall._forward_remote`, the
wire charge, telemetry's ``agent.bytes_out``) and on local dispatch all
resolve against the briefcase's cached encoding (see
:mod:`repro.core.codec`), so one briefcase is encoded at most once per
mutation instead of once per accounting site; ``receive_wire``'s decode
seeds the cached size (the wire-only folders it splits off already
subtracted), and ``snapshot_for_transport`` propagates the cache across
the hop.

A remote send builds one envelope for the receiver:
``snapshot_for_transport`` copies the sender's (whose retry loop keeps
it) around a copy-on-write snapshot of its briefcase, and from there on
the arrival belongs to the receiving firewall, which authenticates it
and makes its target local in place.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core import codec
from repro.core.briefcase import Briefcase
from repro.core.errors import (
    AccessDeniedError,
    AgentNotFoundError,
    BriefcaseTooLargeError,
    CircuitOpenError,
    CodecError,
    QueueFullError,
    QuotaExceededError,
    TaxError,
)
from repro.core.identity import AgentId, InstanceAllocator, SYSTEM_PRINCIPAL
from repro.core.limits import DEFAULT_WIRE_LIMITS
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.firewall.auth import (Signature, TrustStore,
                                 request_signing_bytes)
from repro.firewall.changes import ChangeStream
from repro.firewall.dedup import (
    inject_landing,
    inject_seq,
    install_delivery_state,
    parse_seq,
)
from repro.firewall.governor import Governor
from repro.firewall.message import (
    DEFAULT_QUEUE_TIMEOUT,
    DeliveryStats,
    ENVELOPE_OVERHEAD_BYTES,
    MAX_HOPS,
    Message,
    SenderInfo,
)
from repro.firewall.msgqueue import PendingQueue
from repro.firewall.policy import Policy, open_policy
from repro.obs import propagation
from repro.obs.propagation import TraceContext
from repro.firewall.routing import Registration, Registry
from repro.sim.eventloop import Kernel
from repro.sim.host import SimHost
from repro.sim.network import Network, NetworkError

#: Cost of brokering one local message through the firewall (two IPC hops
#: through the reference monitor).
LOCAL_DISPATCH_SECONDS = 0.0002

#: Retained quarantine records for poison (undecodable) wire messages.
QUARANTINE_LIMIT = 100

#: Bucket bounds (bytes) for the admission-decision size histogram.
ADMISSION_BYTE_BUCKETS = (
    256, 1024, 4096, 16384, 65536, 262144, 1048576)


def _first_text(elements: List[bytes]) -> Optional[str]:
    """The first element of a stripped wire-only folder as text; None
    when it is not UTF-8 (a hostile peer must not crash the firewall)."""
    try:
        return elements[0].decode("utf-8")
    except UnicodeDecodeError:
        return None


class FirewallDirectory:
    """host name → firewall; the inter-firewall "routing table"."""

    def __init__(self):
        self._firewalls: Dict[str, "Firewall"] = {}

    def add(self, firewall: "Firewall") -> None:
        name = firewall.host.name
        if name in self._firewalls:
            raise ValueError(f"duplicate firewall for host {name!r}")
        self._firewalls[name] = firewall

    def lookup(self, host_name: str) -> Optional["Firewall"]:
        return self._firewalls.get(host_name)

    def __contains__(self, host_name: str) -> bool:
        return host_name in self._firewalls


def code_signing_bytes(briefcase: Briefcase) -> bytes:
    """The byte string a code signature covers: all CODE elements plus the
    payload kind (so a signed source blob cannot be replayed as a binary)."""
    parts = []
    if briefcase.has(wellknown.CODE_KIND):
        parts.append(briefcase.get(wellknown.CODE_KIND).first().data)
    if briefcase.has(wellknown.CODE):
        for element in briefcase.get(wellknown.CODE):
            parts.append(element.data)
    return b"\x00".join(parts)


class Firewall:
    """One host's reference monitor."""

    def __init__(self, kernel: Kernel, network: Network, host: SimHost,
                 trust_store: Optional[TrustStore] = None,
                 policy: Optional[Policy] = None,
                 directory: Optional[FirewallDirectory] = None,
                 site_ordinal: int = 0,
                 port: int = 27017):
        self.kernel = kernel
        self.network = network
        self.host = host
        self.port = port
        self.trust_store = trust_store or TrustStore()
        self.policy = policy or open_policy()
        self.directory = directory or FirewallDirectory()
        self.registry = Registry()
        self.instances = InstanceAllocator(site_ordinal)
        governor_config = self.policy.governor
        self.governor = Governor(kernel, host.name, governor_config)
        queue_kwargs = {}
        if governor_config is not None:
            queue_kwargs = {
                "limits": governor_config.queue_limits,
                "overflow": governor_config.overflow,
                "dead_letter_limit": governor_config.dead_letter_limit,
            }
        #: The one way this host announces a state change (see
        #: :mod:`repro.firewall.changes`): the journal of a durable
        #: host and the conservation auditor subscribe; the firewall
        #: never learns who listens.
        self.changes = ChangeStream()
        self.pending = PendingQueue(kernel, on_expire=self._on_expire,
                                    host=host.name, changes=self.changes,
                                    **queue_kwargs)
        #: Poison wire messages that failed to decode (newest last).
        self.quarantine: List[dict] = []
        #: Idempotent-receive state (``self.dedup``/``self.landings``).
        #: Deliberately NOT reset on crash(): the firewall object
        #: survives a host restart, so duplicates produced *by* the
        #: outage are still suppressed afterwards.  Bound once, by the
        #: module that owns the structures (DUR001); a durable host's
        #: replay restores into them.
        install_delivery_state(self, self.changes)
        #: Next outbound sequence per destination host (stamped once per
        #: message in :meth:`_forward_remote`; retries reuse the stamp).
        self._send_seqs: Dict[str, int] = {}
        #: Metric series this firewall writes, held from their first
        #: write, by ``(family name, *label values)`` — every family
        #: here has one set of label names, and the host label is fixed.
        self._series: Dict[tuple, object] = {}
        self.stats = DeliveryStats(host.name)
        # The registry reads the ``fw.*`` counters that mirror the
        # tallies from the tallies themselves (never from the firewall).
        kernel.telemetry.metrics.collectors.append(
            (self.stats.FAMILIES, self.stats.mirrors))
        #: VM name → object implementing launch_agent(); set by the node.
        self.vms: Dict[str, object] = {}
        self.directory.add(self)

    # -- telemetry --------------------------------------------------------------------

    def _counter(self, name: str, **labels):
        """This host's series of counter ``name`` with ``labels``,
        resolved on first use and held in :attr:`_series` — by
        ``name`` alone when there are no labels, by ``(name, *label
        values)`` otherwise.  Callers read the held series themselves
        (``_series.get(key) or _counter(...)``) and call this only on a
        miss, which costs the message path no frame."""
        key = (name, *labels.values()) if labels else name
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = \
                self.kernel.telemetry.metrics.counter(name).labels(
                    host=self.host.name, **labels)
        return series

    def _count(self, name: str, **labels) -> None:
        """Increment a host-labelled counter (no-op when disabled)."""
        if self.kernel.telemetry.enabled:
            key = (name, *labels.values()) if labels else name
            (self._series.get(key) or self._counter(name, **labels)).inc()

    def _flight(self, kind: str, **detail) -> None:
        """Append one event to this host's flight-recorder ring."""
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.flight.record(self.host.name, kind, **detail)

    def _reject(self, reason: str, **detail) -> None:
        """Record one refused forward or policy refusal: the tally and
        a ``rejected`` flight record carrying ``detail``."""
        self.stats.rejections[reason] += 1
        self._flight("rejected", reason=reason, **detail)

    def _admission_bytes(self, decision: str):
        """The held ``fw.admission_bytes`` series of one decision (the
        SLO histogram), resolved on a miss."""
        key = ("fw.admission_bytes", decision)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = \
                self.kernel.telemetry.metrics.histogram(
                    "fw.admission_bytes",
                    buckets=ADMISSION_BYTE_BUCKETS).labels(
                        host=self.host.name, decision=decision)
        return series

    def _admission_rejected(self, decision: str, wire_bytes: int,
                            message: Message, addressed: AgentUri) -> None:
        """Record one rejected admission: the tally (``decision`` is
        the reason), the SLO histogram, the flight recorder, and a
        trace-linked instant so the rejection shows up in the sender's
        causal tree.  ``addressed`` is the target as the sender wrote
        it, before local dispatch stripped its remote part.
        (:meth:`_dispatch_local` records an admitted message itself.)"""
        self.stats.rejections[decision] += 1
        telemetry = self.kernel.telemetry
        if not telemetry.enabled:
            return
        self._admission_bytes(decision).observe(wire_bytes)
        telemetry.tracer.instant(
            "fw.admission_rejected", category="fw",
            track=f"fw:{self.host.name}", reason=decision,
            **propagation.link_args(message.trace))
        self._flight("admission-rejected", reason=decision,
                     target=str(addressed),
                     principal=message.sender.principal,
                     wire_bytes=wire_bytes)

    def _on_expire(self, message: Message) -> None:
        self.stats.expired += 1

    # -- registration (called by VMs) --------------------------------------------------

    def register_agent(self, name: str, principal: str, vm_name: str,
                       deliver_fn: Callable[[Message], bool],
                       process: Optional[object] = None,
                       instance: Optional[str] = None) -> Registration:
        """Register a running agent; flushes any matching queued messages.

        Raises :class:`~repro.core.errors.QuotaExceededError` when the
        principal's resident-agent quota is exhausted (the launch path
        turns this into a nack the sender can back off on).
        """
        if self.governor.resident_quota(principal) is not None:
            self.governor.admit_agent(
                principal, self.registry.resident_count(principal))
        agent_id = AgentId(name, instance or self.instances.next_instance())
        registration = Registration(
            agent_id=agent_id, principal=principal, vm_name=vm_name,
            deliver_fn=deliver_fn, start_time=self.kernel.now,
            process=process)
        self.registry.add(registration)
        if self.changes.sinks:
            self.changes.emit("agent-spawn", instance=agent_id.instance,
                              name=name, principal=principal)
        self._count("fw.registrations", vm=vm_name)
        self._flush_pending_for(registration)
        return registration

    def unregister_agent(self, agent_id: AgentId,
                         reason: str = "finished") -> bool:
        registration = self.registry.remove(agent_id)
        if registration is not None:
            if self.changes.sinks:
                self.changes.emit("agent-depart",
                                  instance=agent_id.instance, reason=reason)
            return True
        return False

    def _flush_pending_for(self, registration: Registration) -> None:
        """Deliver every parked message that ``registration`` matches.

        The claim has already taken the whole batch off the queue, so a
        delivery that is refused or raises is a wrapper drop, as on the
        live path, and the rest still go.
        """
        for message in self.pending.claim(
                lambda target: self._pending_match(registration, target)):
            try:
                delivered = registration.deliver(message)
            except TaxError:
                delivered = False
            if delivered:
                self.stats.delivered_flushed += 1
            else:
                self.stats.dropped_by_wrapper += 1

    def _pending_match(self, registration: Registration,
                       target: AgentUri) -> bool:
        local = target.local()
        if not local.matches_agent(registration.name,
                                   registration.instance,
                                   registration.principal):
            return False
        if local.principal is None and \
                registration.principal != SYSTEM_PRINCIPAL:
            # Without a sender at flush time we only honour the system
            # half of the two-valid-principals rule; sender-principal
            # matches are resolved at send time.
            return False
        return True

    # -- the send path --------------------------------------------------------------------

    def submit(self, message: Message):
        """Broker one message (``yield from`` inside the sender's process).

        Local targets are dispatched after the local-IPC cost; remote
        targets are encoded, charged on the wire, and handed to the peer
        firewall.  Returns True when the message reached a mailbox or a
        queue, False when it was dropped by policy or routing.
        """
        target = message.target
        if target.is_remote and target.host != self.host.name:
            return (yield from self._forward_remote(message))
        yield self.kernel.timeout(LOCAL_DISPATCH_SECONDS)
        return self._dispatch_local(message)

    def _forward_remote(self, message: Message):
        if message.hops >= MAX_HOPS:
            self._reject("looping", target=str(message.target))
            return False
        peer = self.directory.lookup(message.target.host)
        if peer is None:
            self._reject("no-route", target=str(message.target))
            raise AgentNotFoundError(
                f"unknown host {message.target.host!r}")
        if message.seq is None:
            # Stamp once, on the message object the sender's retry loop
            # reuses: a retry after a delivered-but-unacked attempt
            # carries the same sequence, so the peer's dedup window
            # suppresses the double delivery.
            next_seq = self._send_seqs.get(message.target.host, 0) + 1
            self._send_seqs[message.target.host] = next_seq
            message.seq = next_seq
            message.seq_src = self.host.name
        wire_bytes = codec.encoded_size(message.briefcase) + \
            ENVELOPE_OVERHEAD_BYTES
        try:
            self.governor.check_wire(wire_bytes)
        except BriefcaseTooLargeError:
            self._reject("oversized", target=str(message.target),
                         wire_bytes=wire_bytes)
            raise
        try:
            yield from self.network.transfer(
                self.host.name, peer.host.name, wire_bytes)
        except CircuitOpenError:
            self._reject("circuit-open", dst=peer.host.name)
            raise
        except NetworkError:
            self._reject("link-down", dst=peer.host.name)
            raise
        self.stats.forwarded_remote += 1
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            held = self._series
            key = ("fw.forwarded_remote", peer.host.name)
            series = held.get(key)
            if series is None:
                series = held[key] = telemetry.metrics.counter(
                    "fw.forwarded_remote").labels(
                        src=self.host.name, dst=peer.host.name)
            series.inc()
            sender_name = message.sender.uri.name \
                if message.sender.uri is not None else None
            if sender_name:
                key = ("agent.bytes_out", sender_name)
                series = held.get(key)
                if series is None:
                    series = held[key] = telemetry.metrics.counter(
                        "agent.bytes_out").labels(agent=sender_name)
                series.inc(wire_bytes)
        transported = message.snapshot_for_transport()
        injector = self.network.fault_injector
        fault = None
        if injector is not None:
            fault = injector.delivery_verdict(
                self.host.name, peer.host.name, wire_bytes)
        if fault is not None:
            kind, delay = fault
            if kind == "corrupt-wire":
                # The frame was damaged in flight: it reaches the peer
                # through the raw-bytes path (usually straight into the
                # poison quarantine).  The sender cannot know — it sees
                # a normal completed transfer.
                self._deliver_corrupted(peer, transported, injector)
                return True
            if kind == "delay":
                # The only copy is held back — it arrives out of order
                # relative to later traffic on the same channel.
                self._deliver_later(peer, transported, delay)
                return True
            # "duplicate": deliver now and replay a copy later; the
            # replay carries the same sequence stamp, so the peer's
            # dedup window swallows it.
            self._deliver_later(peer, message.snapshot_for_transport(),
                                delay)
        return peer.receive_remote(transported)

    def _deliver_later(self, peer: "Firewall", message: Message,
                       delay: float) -> None:
        """Hand ``message`` to ``peer`` after ``delay`` virtual seconds
        (injected duplicate replays and reorder jitter)."""
        def _delayed():
            yield self.kernel.timeout(delay)
            if not self.network.host_is_up(peer.host.name):
                self._count("fw.delayed_lost", outcome="host-down")
                return
            try:
                peer.receive_remote(message)
            except (TaxError, NetworkError):
                self._count("fw.delayed_lost", outcome="refused")
        self.kernel.spawn(_delayed(),
                          name=f"delayed:{self.host.name}->"
                               f"{peer.host.name}")

    def _deliver_corrupted(self, peer: "Firewall", message: Message,
                           injector) -> bool:
        """Deliver ``message`` as a bit-flipped raw wire frame."""
        briefcase = message.briefcase
        propagation.inject(briefcase, message.trace)
        inject_seq(briefcase, message.seq_src, message.seq)
        inject_landing(briefcase, message.landing_id)
        data = injector.flip_bit(codec.encode(briefcase))
        return peer.receive_wire(
            data, message.target, message.sender,
            queue_timeout=message.queue_timeout,
            priority=message.priority)

    def receive_wire(self, data: bytes, target: AgentUri,
                     sender: SenderInfo,
                     queue_timeout: float = DEFAULT_QUEUE_TIMEOUT,
                     priority: int = 0) -> bool:
        """Entry point for *raw wire bytes* from an untrusted peer.

        The hostile-input path: the buffer is decoded under the
        governor's wire limits, and anything that fails — truncated,
        corrupt, oversized, structurally implausible — is quarantined
        (``fw.poison_quarantined``) instead of crashing the firewall.
        No input to this method can raise an untyped exception.
        """
        limits = self.governor.config.wire_limits or DEFAULT_WIRE_LIMITS
        try:
            # The reserved TRACE-CONTEXT / DELIVERY-SEQ / LANDING-ID
            # folders exist only on the raw wire: the decoder splits them
            # off (whether or not telemetry is on) so resident briefcases
            # never carry transport state across the next hop.
            briefcase, wire_only = codec.decode_arrival(data, limits)
        except CodecError as exc:
            self._quarantine_poison(len(data), sender, exc)
            return False
        trace = seq_src = seq = landing_id = None
        if wire_only:
            elements = wire_only.get(wellknown.TRACE_CONTEXT)
            if elements and self.kernel.telemetry.enabled:
                header = _first_text(elements)
                if header is not None:
                    trace = TraceContext.from_header(header)
            elements = wire_only.get(wellknown.DELIVERY_SEQ)
            if elements:
                seq_src, seq = parse_seq(_first_text(elements))
            elements = wire_only.get(wellknown.LANDING_ID)
            if elements:
                landing_id = _first_text(elements) or None
        return self.receive_remote(Message(
            target=target, briefcase=briefcase, sender=sender,
            queue_timeout=queue_timeout, priority=priority, trace=trace,
            seq=seq, seq_src=seq_src, landing_id=landing_id))

    def _quarantine_poison(self, nbytes: int, sender: SenderInfo,
                           exc: CodecError) -> None:
        self.stats.rejections["poison"] += 1
        self._count("fw.poison_quarantined", kind=type(exc).__name__)
        self.quarantine.append({
            "at": self.kernel.now,
            "sender": sender.principal,
            "from_host": sender.host,
            "bytes": nbytes,
            "error": str(exc),
        })
        if len(self.quarantine) > QUARANTINE_LIMIT:
            self.quarantine.pop(0)
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.flight.record(
                self.host.name, "poison", sender=sender.principal,
                from_host=sender.host, bytes=nbytes,
                error=type(exc).__name__)
            telemetry.flight.dump(self.host.name,
                                  reason="poison-quarantine")

    def receive_remote(self, message: Message) -> bool:
        """Entry point for messages arriving from a peer firewall."""
        self.stats.received_remote += 1
        if message.seq is not None and message.seq_src:
            verdict = self.dedup.observe(message.seq_src, message.seq)
            if verdict == "duplicate":
                # Already processed: acknowledge (True) without
                # re-delivering, so the sender's retry loop settles.
                self.stats.duplicates += 1
                self._flight("dedup-duplicate", src=message.seq_src,
                             seq=message.seq)
                return True
            if verdict == "reject":
                # Below the window: freshness can no longer be proven,
                # and never-double-deliver wins over at-least-once.
                self.stats.rejections["dedup"] += 1
                self._flight("dedup-reject", src=message.seq_src,
                             seq=message.seq)
                return False
        tracked = message.seq is not None and message.seq_src
        try:
            self._authenticate(message)
        except TaxError:
            # A refused signature (untrusted, or unreadable: a bad
            # principal, non-UTF-8 text) leaves the sequence unclaimed,
            # so the genuine retry is fresh traffic.
            self.stats.rejections["auth"] += 1
            self._count("fw.auth", outcome="rejected")
            if tracked:
                self.dedup.forget(message.seq_src, message.seq)
            return False
        if self.kernel.telemetry.enabled:
            outcome = "verified" if message.sender.authenticated \
                else "unsigned"
            (self._series.get(("fw.auth", outcome))
             or self._counter("fw.auth", outcome=outcome)).inc()
        try:
            delivered = self._dispatch_local(message, owned=True)
        except TaxError:
            # The message was refused (quota, queue-full, policy …): it
            # was never processed, so its sequence must not be
            # remembered — the sender's retry is fresh traffic, not a
            # duplicate.
            if tracked:
                self.dedup.forget(message.seq_src, message.seq)
            raise
        if not delivered and tracked:
            self.dedup.forget(message.seq_src, message.seq)
        return delivered

    def _authenticate(self, message: Message) -> None:
        """First-level authentication of an arriving briefcase.

        A valid signature over the agent core authenticates the signing
        principal.  An *invalid* signature is rejected outright.  No
        signature means the claimed principal stays unauthenticated.
        The arriving message belongs to this firewall: its sender is
        updated in place.
        """
        briefcase = message.briefcase
        signature_text = briefcase.get_text(wellknown.SIGNATURE)
        if signature_text is not None:
            sender = message.sender
            signature = Signature.from_text(signature_text)
            # Code-carrying briefcases sign their CODE; codeless requests
            # (cross-host admin ops) sign the whole request.
            data = code_signing_bytes(briefcase)
            if not data:
                data = request_signing_bytes(briefcase)
            message.sender = SenderInfo(
                self.trust_store.verify(signature, data), sender.host,
                sender.uri, True)
        elif message.sender.authenticated:
            message.sender = message.sender.unauthenticated

    def _dispatch_local(self, message: Message,
                        retransmits: int = 0,
                        admitted: bool = False,
                        owned: bool = False) -> bool:
        """Admit, then deliver to a local mailbox or park.  An ``owned``
        message (an arrival) has its target made local in place; a
        local sender's own message is left alone, and a copy with the
        local target is delivered instead."""
        addressed = message.target
        target = addressed.local()
        if target is not addressed:
            if owned:
                message.target = target
            else:
                message = message.with_target(target)
        # Cache-served after the first accounting site touches this
        # briefcase (encode on the forward path seeds it; so does
        # decode on the receive_wire path).
        wire_bytes = codec.encoded_size(message.briefcase)
        telemetry = self.kernel.telemetry
        if not admitted:
            # The dispatching firewall protects its own host: every
            # message — local send, remote arrival — passes the governor
            # before it may consume a mailbox or the pending queue.
            # Retransmits were admitted on first dispatch (admitted=True)
            # so a crash/restart cycle is not double-charged.
            try:
                self.governor.admit_message(
                    message.sender.principal, wire_bytes,
                    pending=self.pending)
            except QuotaExceededError:
                self._admission_rejected("quota", wire_bytes, message,
                                         addressed)
                raise
            except BriefcaseTooLargeError:
                self._admission_rejected("oversized", wire_bytes, message,
                                         addressed)
                raise
            if telemetry.enabled:
                (self._series.get(("fw.admission_bytes", "admitted"))
                 or self._admission_bytes("admitted")).observe(wire_bytes)
                telemetry.flight.record(
                    self.host.name, "admitted", target=str(addressed),
                    principal=message.sender.principal,
                    wire_bytes=wire_bytes)
        try:
            registration = self.registry.resolve_one(
                target, message.sender.principal)
        except AgentNotFoundError:
            if message.queue_timeout > 0:
                try:
                    self.pending.park(message,
                                      retransmits=retransmits,
                                      wire_bytes=wire_bytes)
                except QueueFullError:
                    self._admission_rejected("queue-full", wire_bytes,
                                             message, addressed)
                    raise
                self.stats.queued += 1
                return True
            self.stats.rejections["absent"] += 1
            return False
        if telemetry.enabled:
            (self._series.get("fw.routing_resolved")
             or self._counter("fw.routing_resolved")).inc()
        if not self.policy.can_send(message.sender, registration):
            self._reject("policy", principal=message.sender.principal,
                         target=str(registration.agent_id))
            raise AccessDeniedError(
                f"{message.sender.principal!r} may not send to "
                f"{registration.agent_id}")
        delivered = registration.deliver(message)
        if delivered:
            self.stats.delivered_live += 1
            if telemetry.enabled:
                name = registration.agent_id.name
                key = ("agent.messages_in", name)
                series = self._series.get(key)
                if series is None:
                    series = self._series[key] = telemetry.metrics.counter(
                        "agent.messages_in").labels(agent=name)
                series.inc()
        else:
            self.stats.dropped_by_wrapper += 1
        return delivered

    # -- crash / restart (driven by the node) -------------------------------------------------

    def crash(self, reason: str = "host-crash") -> int:
        """Host crash: kill every registration, dead-letter parked messages.

        Returns the number of registrations destroyed.  Resident agent
        processes are interrupted (their generators unwind at the next
        scheduler step); the pending queue's contents become
        ``host-crash`` dead letters instead of silently vanishing.
        """
        killed = 0
        for registration in self.registry.all():
            process = registration.process
            if process is not None and getattr(process, "is_alive", False):
                process.interrupt(reason)
            self.registry.remove(registration.agent_id)
            if self.changes.sinks:
                self.changes.emit("agent-crash",
                                  instance=registration.instance)
            killed += 1
        records = self.pending.crash_flush()
        # Landings that ran here are gone with their processes: a
        # retried landing (the origin never saw the ack) must be refused
        # after restart, not resurrected as a twin — the rear guard owns
        # recovery from the last checkpoint.
        tombstoned = self.landings.crash_all(reason)
        self._count("fw.crashes")
        self._flight("crash", reason=reason, killed=killed,
                     dead_lettered=len(records), tombstoned=tombstoned)
        return killed

    def _unlink(self) -> None:
        """Let go of what only a running world needs (for
        :meth:`~repro.system.cluster.TaxCluster.close`): every
        registration — each dropping its delivery closure — the VMs,
        the pending queue's callback into this firewall, and the
        directory of peers.  Counters, ledgers and snapshots stay
        readable."""
        self.registry._remove_all()
        self.vms = {}
        self.pending.on_expire = None
        self.directory = FirewallDirectory()

    def retransmit_dead_letters(self, max_retransmits: int = 2) -> int:
        """Redeliver dead letters after a restart instead of losing them.

        Each eligible record goes back through local dispatch: delivered
        immediately if its target re-registered, or re-parked with a
        fresh TTL (carrying its retransmit count, so a message cannot
        bounce through crashes forever).
        """
        redelivered = 0
        telemetry = self.kernel.telemetry
        for record in self.pending.take_retransmittable(max_retransmits):
            self._count("fw.retransmits", reason=record.reason)
            if telemetry.enabled:
                # The parked envelope kept its causal context through the
                # crash; the retransmit instant links into that trace.
                telemetry.tracer.instant(
                    "fw.retransmit", category="fw",
                    track=f"fw:{self.host.name}", reason=record.reason,
                    target=str(record.message.target),
                    **propagation.link_args(record.message.trace))
            self._flight("retransmit", reason=record.reason,
                         target=str(record.message.target))
            try:
                self._dispatch_local(record.message,
                                     retransmits=record.retransmits + 1,
                                     admitted=True)
                redelivered += 1
            except TaxError:
                self._count("fw.retransmit_failures", reason=record.reason)
        return redelivered

    # -- addressing helpers ------------------------------------------------------------------

    def uri_for(self, registration: Registration) -> AgentUri:
        """The full remote-usable URI of a local registration."""
        uri = registration.full_uri
        if uri is None:
            uri = registration.full_uri = AgentUri(
                host=self.host.name, port=self.port,
                principal=registration.principal,
                name=registration.name,
                instance=registration.instance)
        return uri

    # -- admin primitives (used by the admin agent) ---------------------------------------------

    def admin_list(self) -> List[Registration]:
        return self.registry.all()

    def stats_dict(self) -> dict:
        """Firewall-level stat: delivery counters, queue, dead letters,
        governor admission state, and the poison quarantine."""
        return {
            "host": self.host.name,
            "delivery": {name: getattr(self.stats, name) for name in (
                "delivered", "queued", "expired", "rejected",
                "forwarded_remote", "received_remote", "dropped_by_wrapper",
                "duplicates")},
            "queued_now": len(self.pending),
            "queue": self.pending.accounting(),
            "dead_letters": self.pending.dead_letter_records(),
            "governor": self.governor.snapshot(),
            "quarantined": list(self.quarantine),
            "dedup": self.dedup.snapshot(),
            "landings": self.landings.snapshot(),
        }

    def tombstone_landing(self, landing_id: str,
                          reason: str = "aborted") -> dict:
        """Admin primitive: forbid ``landing_id`` here, killing the
        instance it launched if one is still running (two-phase abort
        of an ambiguous ``go``)."""
        uri = self.landings.tombstone(landing_id, reason)
        killed = False
        if uri is not None:
            instance = AgentUri.parse(uri).instance
            if instance is not None:
                killed = self.admin_kill(instance)
        self._count("fw.landing_tombstoned", reason=reason)
        self._flight("landing-tombstone", landing_id=landing_id,
                     reason=reason, killed=killed)
        return {"tombstoned": True, "killed": killed}

    def admin_kill(self, instance: str) -> bool:
        """Terminate an agent: interrupt its process and unregister it."""
        registration = self.registry.by_instance(instance)
        if registration is None:
            return False
        process = registration.process
        if process is not None and getattr(process, "is_alive", False):
            process.interrupt("killed-by-admin")
        self.registry.remove(registration.agent_id)
        if self.changes.sinks:
            # A deliberate kill is a decision, not a conservation loss.
            self.changes.emit("agent-depart",
                              instance=registration.instance,
                              reason="killed")
        return True

    def admin_pause(self, instance: str) -> bool:
        registration = self.registry.by_instance(instance)
        if registration is None:
            return False
        registration.pause()
        return True

    def admin_resume(self, instance: str) -> bool:
        registration = self.registry.by_instance(instance)
        if registration is None:
            return False
        self.stats.dropped_by_wrapper += registration.resume()
        return True
