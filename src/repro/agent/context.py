"""AgentContext: the TAX library, bound to one running agent.

This is the per-agent instance of the shared library of paper section
3.1: state management (the live briefcase), communication
(``activate``/``await``/``meet`` built on ``bcSend``/``bcRecv``), and
mobility (``go``/``spawn``, both one ``transport`` → ``launch`` →
``meet`` away from the destination VM).  Every blocking operation is a
generator that agent code drives with ``yield from``.

The context also owns the agent's wrapper stack: outbound briefcases are
filtered innermost→outermost before reaching the firewall, mirroring the
inbound interception the VM wires into the delivery path.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Union

from repro.core.briefcase import Briefcase
from repro.core.errors import (
    CommTimeoutError,
    LaunchRejected,
    MigrationError,
    OverloadError,
    TaxError,
    is_transient,
)
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.agent.mailbox import Mailbox
from repro.firewall.auth import sign_request
from repro.firewall.message import DEFAULT_QUEUE_TIMEOUT, Message, SenderInfo
from repro.obs.propagation import link_args, span_args
from repro.sim.errors import StopProcess
from repro.sim.ledger import CostLedger
from repro.sim.network import NetworkError

Target = Union[str, AgentUri]

#: Default patience for meet() round trips.
DEFAULT_MEET_TIMEOUT = 60.0

#: System folders the VM strips from a transport briefcase before launch.
TRANSPORT_FOLDERS = (wellknown.MEET_TOKEN, wellknown.REPLY_TO, wellknown.OP)

#: Cost of one wrapper layer observing one message.  Wrappers are agents
#: in TAX; colocated interception is a cheap same-VM hop rather than a
#: full firewall dispatch.
WRAPPER_LAYER_SECONDS = 2e-5


class AgentContext:
    """Execution context handed to every agent's main generator."""

    def __init__(self, node, vm_name: str, briefcase: Briefcase,
                 principal: str, wrappers=None):
        if wrappers is None:
            # Imported lazily: wrappers depend on the VM loader, which
            # depends on this module (wrapper stacks travel in briefcases).
            from repro.wrappers.stack import WrapperStack
            wrappers = WrapperStack()
        self.node = node
        self.vm_name = vm_name
        self.briefcase = briefcase
        self.principal = principal
        self.wrappers = wrappers
        self.registration = None
        self.mailbox: Optional[Mailbox] = None
        self.moved = False
        self.finished = False
        self._pending_tokens: set = set()
        #: Lifecycle span opened by the launching VM (None for drivers
        #: and service contexts, which are never launched).
        self.run_span = None
        #: Causal trace node for this residency (a
        #: :class:`~repro.obs.propagation.TraceContext`).  Set by the VM
        #: at launch from the transport message's context; rooted lazily
        #: for driver/service contexts; always None when telemetry is
        #: disabled.
        self.trace = None
        #: Trace node outbound messages should carry instead of a fresh
        #: per-send child — set for the duration of a go/spawn meet (and
        #: its retries) so every transport attempt of one hop shares the
        #: hop's causal node.
        self._outbound_trace = None
        #: Landing id outbound messages should carry — pinned by
        #: :meth:`transport` for the duration of its meet (and its
        #: retries) so every attempt of one hop presents the same id to
        #: the destination's :class:`~repro.firewall.dedup.LandingRegistry`.
        self._outbound_landing = None
        #: Per-context landing-id counter (envelope metadata only, so —
        #: unlike meet tokens — uniqueness per (host, instance) is all
        #: that matters).
        self._landing_counter = itertools.count(1)
        #: Transport retry configuration (None: fail on first error,
        #: the pre-resilience behaviour).  See :meth:`configure_retry`.
        self.retry_policy = None
        self.retry_rng = None
        #: Keychain for sender authentication of outbound codeless
        #: requests (None: sends stay unsigned and arrive remotely as
        #: unauthenticated).  See :meth:`configure_signing`.
        self.keychain = None
        #: Per-context meet-token counter.  Deliberately *not* shared
        #: process-wide: token strings ride in briefcases, so a global
        #: counter would make wire sizes (and thus virtual timings)
        #: depend on how many meets earlier runs in the same process
        #: happened to issue.  Tokens stay unique per mailbox because
        #: they embed the instance id.
        self._token_counter = itertools.count(1)
        #: What outbound messages say of their origin, built on the
        #: first send of a residency (see :meth:`_sender_info`).
        self._sender: Optional[SenderInfo] = None
        #: This agent's ``agent.messages_out`` series, held from the
        #: first counted send until the next :meth:`attach`.
        self._messages_out = None
        self._sanitize(briefcase, "attach")

    def _sanitize(self, briefcase: Optional[Briefcase], op: str) -> None:
        """Present ``briefcase`` to the ambient sanitizer, if one is
        installed (see :mod:`repro.analysis.sanitizer`).  One attribute
        read + None check when sanitizing is off."""
        sanitizer = getattr(self.node.kernel, "sanitizer", None)
        if sanitizer is not None and briefcase is not None:
            sanitizer.observe_briefcase(self, briefcase, op=op)

    def configure_retry(self, policy, rng=None) -> None:
        """Enable transport retries on ``send``/``meet`` (and therefore
        ``go``/``spawn_to``/``call_service``, which ride on ``meet``).

        ``policy`` is a :class:`repro.core.retry.RetryPolicy` (or None
        to disable); ``rng`` an optional seeded stream for jitter —
        without one delays are deterministic midpoints.
        """
        self.retry_policy = policy
        self.retry_rng = rng

    def configure_signing(self, keychain) -> None:
        """Sign outbound codeless requests with this context's principal.

        Remote firewalls authenticate arrivals by signature; without one
        the claimed principal stays unauthenticated and admin-gated ops
        (``kill``, ``tombstone``) are refused.  Rear guards and
        migration origins — anything running a cross-host control plane
        — need this; plain data traffic does not.
        """
        self.keychain = keychain

    def attach(self, registration, mailbox: Mailbox) -> None:
        self.registration = registration
        self.mailbox = mailbox
        self._messages_out = None

    # -- introspection ----------------------------------------------------------------

    @property
    def kernel(self):
        return self.node.kernel

    @property
    def firewall(self):
        return self.node.firewall

    @property
    def host_name(self) -> str:
        return self.node.host.name

    @property
    def name(self) -> str:
        return self.registration.name

    @property
    def instance(self) -> str:
        return self.registration.instance

    @property
    def uri(self) -> AgentUri:
        """This agent's full, remotely-usable address."""
        return self.firewall.uri_for(self.registration)

    @property
    def now(self) -> float:
        return self.kernel.now

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _resolve(target: Target) -> AgentUri:
        if isinstance(target, AgentUri):
            return target
        return AgentUri.parse(target)

    def _sender_info(self) -> SenderInfo:
        """Host, port, principal, name and instance cannot change while
        a registration lives, so one frozen :class:`SenderInfo` serves
        every message of the residency — rebuilt only if the context is
        attached to another registration or given another principal."""
        sender = self._sender
        if sender is None or sender.principal != self.principal \
                or sender.uri is not self.registration.full_uri:
            sender = self._sender = SenderInfo(
                principal=self.principal, host=self.host_name,
                uri=self.uri, authenticated=True)
        return sender

    def _count_retry(self, op: str) -> None:
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            labels = {"op": op}
            if self.registration is not None:
                labels["agent"] = self.name
            telemetry.metrics.inc("transport.retries", **labels)

    def _current_trace(self):
        """This context's causal node, rooted lazily for contexts that
        were never launched from a traced message (drivers, services).
        None whenever telemetry is disabled."""
        telemetry = self.kernel.telemetry
        if not telemetry.enabled:
            return None
        if self.trace is None:
            self.trace = telemetry.new_trace()
        return self.trace

    def _retry_wait(self, op: str, retry_index: int):
        """Spend the backoff before retry ``retry_index`` (a generator)."""
        delay = self.retry_policy.delay(retry_index, self.retry_rng)
        self._count_retry(op)
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            trace = self._outbound_trace or self.trace
            track = f"agent:{self.name}" \
                if self.registration is not None else "agent:unattached"
            telemetry.tracer.instant(
                "transport.retry", category="agent", track=track,
                op=op, attempt=retry_index + 1, **link_args(trace))
        yield self.kernel.timeout(delay)

    # -- communication primitives ------------------------------------------------------

    def send(self, target: Target, briefcase: Optional[Briefcase] = None,
             queue_timeout: float = DEFAULT_QUEUE_TIMEOUT,
             priority: int = 0):
        """``activate``: fire-and-forget send of a briefcase snapshot.

        ``ok = yield from ctx.send(target, bc)``.  The wrapper stack may
        rewrite or swallow the send (swallowed sends return False).
        ``priority`` matters only under a receiver's ``shed-priority``
        overflow policy: higher-priority messages may evict parked
        lower-priority ones when its queue is full.
        """
        target = self._resolve(target)
        briefcase = briefcase if briefcase is not None else Briefcase()
        if self.wrappers.depth:
            yield self.kernel.timeout(
                self.wrappers.depth * WRAPPER_LAYER_SECONDS)
        filtered = self.wrappers.apply_send(self, target, briefcase)
        if filtered is None:
            yield self.kernel.timeout(0)
            return False
        target, briefcase = filtered
        if self.keychain is not None:
            sign_request(briefcase, self.keychain, self.principal)
        self._sanitize(briefcase, "send")
        self._sanitize(self.briefcase, "send-self")
        telemetry = self.kernel.telemetry
        trace = None
        if telemetry.enabled:
            # A hop in progress pins every transport attempt to the hop's
            # causal node; ordinary sends each get a child node of this
            # residency, minted in one frame.  Envelope-only: zero wire
            # bytes either way.
            trace = self._outbound_trace or telemetry.ids.child(
                self.trace or self._current_trace())
        message = Message(target=target, briefcase=briefcase.snapshot(),
                          sender=self._sender_info(),
                          queue_timeout=queue_timeout,
                          priority=priority, trace=trace,
                          landing_id=self._outbound_landing)
        retries = 0
        while True:
            try:
                ok = yield from self.firewall.submit(message)
                break
            except (TaxError, NetworkError) as exc:
                if isinstance(exc, OverloadError):
                    telemetry = self.kernel.telemetry
                    if telemetry.enabled:
                        telemetry.metrics.inc(
                            "transport.overload_rejections", op="send")
                policy = self.retry_policy
                if policy is None or retries >= policy.retries or \
                        not is_transient(exc):
                    raise
                yield from self._retry_wait("send", retries)
                retries += 1
        if ok and telemetry.enabled and self.registration is not None:
            series = self._messages_out
            if series is None:
                series = self._messages_out = telemetry.metrics.counter(
                    "agent.messages_out").labels(agent=self.name)
            series.inc()
        return ok

    def post(self, target: Target, briefcase: Optional[Briefcase] = None):
        """Asynchronous send: runs in its own process, returns immediately.

        Usable from non-process code (wrapper hooks); a failure is not
        raised but counted in ``agent.post_failures`` (telemetry on).
        """
        def _poster():
            try:
                yield from self.send(target, briefcase)
            except (TaxError, NetworkError):
                telemetry = self.kernel.telemetry
                if telemetry.enabled:
                    telemetry.metrics.inc("agent.post_failures",
                                          agent=self.name)
        return self.kernel.spawn(_poster(), name=f"post:{target}")

    def recv(self, timeout: Optional[float] = None,
             match: Optional[Callable[[Message], bool]] = None) -> Message:
        """``await``: blocking receive.  ``msg = yield from ctx.recv()``."""
        if self.mailbox is None:
            raise TaxError("agent has no mailbox (not yet attached)")
        message = yield from self.mailbox.receive(timeout=timeout,
                                                  match=match)
        if self.wrappers.depth:
            # Inbound interception already happened at delivery; the
            # layers' work is charged to the receiving agent here.
            yield self.kernel.timeout(
                self.wrappers.depth * WRAPPER_LAYER_SECONDS)
        self._sanitize(message.briefcase, "recv")
        return message

    def await_bc(self, timeout: Optional[float] = None) -> Briefcase:
        """The paper-shaped ``await``: returns just the briefcase."""
        message = yield from self.recv(timeout=timeout)
        return message.briefcase

    def meet(self, target: Target, briefcase: Briefcase,
             timeout: float = DEFAULT_MEET_TIMEOUT) -> Briefcase:
        """RPC: send a briefcase, await the correlated reply briefcase.

        With a retry policy configured, a reply that never arrives
        (receiver crashed, request or reply lost) re-sends the request —
        the token makes duplicate replies harmless — with exponential
        backoff between rounds.  Transient *send* failures retry inside
        :meth:`send` itself.
        """
        token = f"mt-{self.instance}-{next(self._token_counter)}"
        briefcase.put(wellknown.MEET_TOKEN, token)
        briefcase.put(wellknown.REPLY_TO, str(self.uri))
        self._pending_tokens.add(token)
        retries = 0
        try:
            while True:
                ok = yield from self.send(target, briefcase)
                if not ok:
                    raise CommTimeoutError(
                        f"meet with {target}: send was dropped")
                try:
                    reply = yield from self.recv(
                        timeout=timeout,
                        match=lambda m: m.briefcase.get_text(
                            wellknown.MEET_TOKEN) == token)
                    break
                except CommTimeoutError:
                    policy = self.retry_policy
                    if policy is None or retries >= policy.retries:
                        raise
                    yield from self._retry_wait("meet", retries)
                    retries += 1
        finally:
            self._pending_tokens.discard(token)
        return reply.briefcase

    def is_pending_reply(self, message: Message) -> bool:
        """True when ``message`` answers one of this context's in-flight
        meets.  Loops sharing a mailbox with concurrent meets use this to
        avoid stealing replies: ``recv(match=lambda m: not
        ctx.is_pending_reply(m))``."""
        token = message.briefcase.get_text(wellknown.MEET_TOKEN)
        return token is not None and token in self._pending_tokens

    def reply(self, request: Union[Message, Briefcase],
              response: Briefcase):
        """Answer a meet(): route ``response`` back to the requester."""
        request_bc = request.briefcase if isinstance(request, Message) \
            else request
        reply_to = request_bc.get_text(wellknown.REPLY_TO)
        if reply_to is None:
            raise TaxError("request carries no REPLY-TO; cannot reply")
        token = request_bc.get_text(wellknown.MEET_TOKEN)
        if token is not None:
            response.put(wellknown.MEET_TOKEN, token)
        # Replies continue the *requester's* causal chain, so service and
        # VM acks do not root stray traces of their own.
        telemetry = self.kernel.telemetry
        previous = self._outbound_trace
        if telemetry.enabled and isinstance(request, Message) and \
                request.trace is not None:
            self._outbound_trace = telemetry.child_context(request.trace)
        try:
            return (yield from self.send(AgentUri.parse(reply_to),
                                         response))
        finally:
            self._outbound_trace = previous

    def call_service(self, service_name: str, op: str,
                     briefcase: Optional[Briefcase] = None,
                     timeout: float = DEFAULT_MEET_TIMEOUT) -> Briefcase:
        """meet() a local service agent with an OP folder set."""
        briefcase = briefcase if briefcase is not None else Briefcase()
        briefcase.put(wellknown.OP, op)
        target = AgentUri.for_agent(service_name)
        response = yield from self.meet(target, briefcase, timeout=timeout)
        status = response.get_text(wellknown.STATUS, "error")
        if status != "ok":
            error = response.get_text(wellknown.ERROR, "unknown error")
            raise TaxError(f"{service_name}.{op} failed: {error}")
        return response

    # -- mobility -------------------------------------------------------------------------

    def _transport_briefcase(self) -> Briefcase:
        self._sanitize(self.briefcase, "go")
        transport = self.briefcase.snapshot()
        transport.put(wellknown.AGENT_NAME, self.name)
        transport.put(wellknown.PRINCIPAL, self.principal)
        return transport

    def _new_landing_id(self) -> str:
        """Mint a landing id for one migration.

        The ``host:instance:`` prefix doubles as a capability: the
        destination's firewall lets the *minting host* tombstone the id
        without full admin rights (see ``FirewallAdmin.op_tombstone``).
        """
        return f"{self.host_name}:{self.instance}:" \
               f"{next(self._landing_counter)}"

    def _abort_landing(self, target: AgentUri, landing_id: str,
                       op: str) -> None:
        """Best-effort: tombstone an ambiguous landing at the destination.

        A transport that *failed* may still have launched the agent —
        the ack, not the launch, may be what the partition ate.  The
        origin cannot tell, so it posts a tombstone to the destination
        firewall: if the landing ran, the twin is killed; if the
        transport never arrives, the id is poisoned against late
        duplicates.  Fire-and-forget — an unreachable destination just
        logs the failure.
        """
        if target.host is None or target.host == self.host_name:
            return
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.metrics.inc("agent.landing_aborts", op=op)
        request = Briefcase()
        request.put(wellknown.OP, "tombstone")
        request.put(wellknown.ARGS, {"landing_id": landing_id,
                                     "reason": f"{op}-abandoned"})
        self.post(AgentUri(host=target.host, name="firewall"), request)

    def launch(self, vm_target: Target, briefcase: Briefcase,
               timeout: float = DEFAULT_MEET_TIMEOUT) -> str:
        """Hand ``briefcase`` to the VM at ``vm_target`` to run as a new
        agent; returns that agent's URI string.

        The client half of the launch protocol (:mod:`repro.vm.base`):
        a VM's nack raises :class:`LaunchRejected` carrying its reason;
        a failure of the ``meet`` itself propagates unchanged and is
        *ambiguous* — the agent may have been launched with only the
        ack lost.  Use :meth:`transport` where that matters.
        """
        reply = yield from self.meet(vm_target, briefcase, timeout=timeout)
        if reply.get_text(wellknown.STATUS, "error") != "ok":
            raise LaunchRejected(
                reply.get_text(wellknown.ERROR, "launch failed"))
        uri = reply.get_text(wellknown.AGENT_URI)
        if uri is None:
            raise LaunchRejected(f"{vm_target} acked without an agent URI")
        return uri

    def transport(self, op: str, vm_target: Target, briefcase: Briefcase,
                  timeout: float = DEFAULT_MEET_TIMEOUT,
                  landing: Optional[str] = None) -> str:
        """A :meth:`launch` that lands exactly once.

        Every attempt (retries, duplicates) presents the same landing id
        — ``landing``, or a fresh one — to the destination.  A nack
        re-raises as is: the VM already released the slot.  Any other
        failure may have landed with only the ack lost, so the landing is
        tombstoned there (labelled ``op``) before the error re-raises.
        """
        target = self._resolve(vm_target)
        if landing is None:
            landing = self._new_landing_id()
        # Restored, not cleared: recovery transports from inside a guard
        # whose own hop may be in flight.
        previous = self._outbound_landing
        self._outbound_landing = landing
        try:
            return (yield from self.launch(target, briefcase, timeout))
        except LaunchRejected:
            raise
        except (TaxError, NetworkError):
            self._abort_landing(target, landing, op)
            raise
        finally:
            self._outbound_landing = previous

    def _hop(self, op: str, vm_target: Target, timeout: float) -> str:
        """Transport this agent's briefcase to ``vm_target``, traced and
        counted as one ``op`` hop (``"go"`` or ``"spawn"``); returns the
        landed agent's URI string."""
        departing = op == "go"
        target = self._resolve(vm_target)
        telemetry = self.kernel.telemetry
        # The hop's causal node: a child of this residency that every
        # transport attempt (including retries) of this hop carries.
        hop_trace = telemetry.child_context(self._current_trace()) \
            if telemetry.enabled else None
        span = telemetry.tracer.begin(
            op, category="agent", track=f"agent:{self.name}",
            agent=self.name, src=self.host_name, dst=str(target),
            dst_host=target.host, **span_args(hop_trace))
        landing = self._new_landing_id()
        changes = self.firewall.changes
        if departing:
            self.wrappers.on_depart(self, target)
            if changes.sinks:
                # Announce the intent before the transport leaves: if
                # this host crashes mid-hop, replay knows the agent's
                # fate is ambiguous (it may already be running at the
                # destination) and must not resurrect a twin here.
                changes.emit("depart-intent", instance=self.instance,
                             landing=landing)
        # Taken after on_depart, so what a wrapper writes into the
        # briefcase as the agent leaves (a hop record) travels with it.
        transport = self._transport_briefcase()
        self._outbound_trace = hop_trace
        try:
            uri = yield from self.transport(op, target, transport,
                                            timeout, landing)
        except (TaxError, NetworkError) as exc:
            outcome = "rejected" if isinstance(exc, LaunchRejected) \
                else "failed"
            span.end(outcome=outcome, error=str(exc))
            if telemetry.enabled:
                telemetry.metrics.inc("agent.migration_failures", op=op)
            if departing and changes.sinks:
                changes.emit("depart-failed", instance=self.instance)
            raise MigrationError(f"{op}({target}) {outcome}: {exc}") from exc
        finally:
            self._outbound_trace = None
        if departing:
            span.end(outcome="ok")
        else:
            span.end(outcome="ok", clone=uri)
        if telemetry.enabled:
            telemetry.metrics.inc("agent.migrations", op=op)
            telemetry.metrics.inc("agent.hops", agent=self.name)
            if span.duration is not None:
                telemetry.metrics.observe(
                    "agent.hop_seconds", span.duration,
                    agent=self.name, op=op)
            telemetry.flight.record(self.host_name, "hop",
                                    agent=self.name, op=op,
                                    dst=target.host)
        return uri

    def go(self, vm_target: Target, timeout: float = DEFAULT_MEET_TIMEOUT):
        """Move this agent to the VM at ``vm_target``.

        On success the current instance terminates (the call never
        returns); on failure :class:`MigrationError` is raised and the
        agent continues here — the Figure-4 ``if (go(...)) { ... }``
        pattern becomes ``try: yield from ctx.go(...) except
        MigrationError``.
        """
        yield from self._hop("go", vm_target, timeout)
        # The move succeeded: terminate this instance.
        self.moved = True
        self.firewall.unregister_agent(self.registration.agent_id,
                                       reason="moved")
        if self.mailbox is not None:
            self.mailbox.close()
        raise StopProcess("moved")

    def spawn_to(self, vm_target: Target,
                 timeout: float = DEFAULT_MEET_TIMEOUT) -> AgentUri:
        """Clone this agent onto ``vm_target`` (Unix ``fork`` analogue).

        The clone gets a fresh instance number at the destination; its
        URI is returned to this (continuing) agent.
        """
        return AgentUri.parse(
            (yield from self._hop("spawn", vm_target, timeout)))

    # -- time ------------------------------------------------------------------------------

    def sleep(self, seconds: float):
        yield self.kernel.timeout(seconds)

    def charge(self, cost: Union[CostLedger, float]):
        """Spend the virtual time a synchronous computation accumulated.

        A :class:`CostLedger` is flushed into the metrics registry and
        the tracer (per-category ``cost.seconds`` series and cost spans)
        before the sleep, so synchronous Webbot costs appear in traces
        instead of vanishing with the discarded ledger.
        """
        if isinstance(cost, CostLedger):
            labels = {"host": self.host_name}
            if self.registration is not None:
                labels["agent"] = self.name
            seconds = self.kernel.telemetry.flush_ledger(
                cost, track=f"cost:{self.host_name}",
                start=self.kernel.now, **labels)
        else:
            seconds = float(cost)
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        yield self.kernel.timeout(seconds)
        return seconds
