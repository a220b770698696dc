"""Virtual machine base: the landing pad's execution engines.

Paper section 3.3: VMs are the component that makes TAX language
independent.  Each VM is responsible for executing agent code *safely*
by whatever mechanism suits its payload kind; the firewall simply trusts
it to do so.  VMs must (a) speak briefcases, and (b) respond to firewall
commands — both fall out of the fact that **a VM is itself a registered
agent**: agents migrate by ``meet``-ing the destination VM with their
transport briefcase (which is why the paper's example address
``tacoma://cl2.cs.uit.no:27017//vm_c:933821661`` names a VM).

The launch protocol implemented here:

1. a transport briefcase (CODE, CODE-KIND, WRAPPERS, AGENT-NAME, user
   folders) arrives addressed to the VM;
2. the VM charges launch CPU, materialises the entry point
   (subclass-specific: sandbox, signature check, or compile chain);
3. it rebuilds the wrapper stack, registers the agent with the firewall
   (which flushes any messages queued ahead of the agent's arrival), and
   spawns the agent process;
4. it acks the ``go``/``spawn`` with STATUS=ok and the new agent's URI,
   or STATUS=error and a reason.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional, Tuple

from repro.core.briefcase import Briefcase
from repro.core.errors import TaxError, VMError
from repro.core.identity import SYSTEM_PRINCIPAL
from repro.core.retry import RetryPolicy
from repro.core import wellknown
from repro.agent.context import TRANSPORT_FOLDERS, AgentContext
from repro.agent.mailbox import Mailbox
from repro.firewall.message import Message
from repro.obs.propagation import link_args, span_args
from repro.sim.errors import Interrupt, StopProcess
from repro.vm import loader
from repro.vm.sandbox import Sandbox
from repro.wrappers.stack import WrapperStack, build_stack, read_wrapper_specs

#: Launch cost model: fixed overhead + per-payload-byte deserialisation.
LAUNCH_OVERHEAD_SECONDS = 0.002
LAUNCH_PER_BYTE_SECONDS = 2e-8

#: How often a launch handler re-checks a landing id another delivery of
#: the same transport is currently resolving.
LANDING_POLL_SECONDS = 0.005


class VirtualMachine:
    """Common machinery; subclasses define ``accepts`` and entry prep."""

    #: Agent name the VM registers under (e.g. "vm_python").
    name = "vm_base"
    #: Payload kinds this VM can launch.
    accepts: Tuple[str, ...] = ()

    def __init__(self, node, sandbox: Optional[Sandbox] = None):
        self.node = node
        self.sandbox = sandbox or Sandbox()
        self.ctx: Optional[AgentContext] = None
        self.launched = 0
        self.launch_failures = 0

    # -- wiring --------------------------------------------------------------------

    @property
    def kernel(self):
        return self.node.kernel

    @property
    def firewall(self):
        return self.node.firewall

    def boot(self) -> None:
        """Register the VM as a system agent and start its accept loop."""
        mailbox = Mailbox(self.kernel)
        self.ctx = AgentContext(self.node, vm_name=self.name,
                                briefcase=Briefcase(),
                                principal=SYSTEM_PRINCIPAL)
        registration = self.firewall.register_agent(
            name=self.name, principal=SYSTEM_PRINCIPAL, vm_name=self.name,
            deliver_fn=mailbox.deliver)
        self.ctx.attach(registration, mailbox)
        process = self.kernel.spawn(self._accept_loop(),
                                    name=f"{self.name}@{self.node.host.name}")
        registration.process = process

    def _accept_loop(self):
        # The exclusion predicate keeps the loop from stealing replies to
        # meets issued by concurrently running launch handlers.
        while True:
            message = yield from self.ctx.recv(
                match=lambda m: not self.ctx.is_pending_reply(m))
            self.kernel.spawn(
                self.handle_launch_message(message),
                name=f"{self.name}-launch@{self.node.host.name}")

    # -- the launch path -------------------------------------------------------------

    def handle_launch_message(self, message: Message):
        """Process one arriving agent briefcase (overridable)."""
        telemetry = self.kernel.telemetry
        host_name = self.node.host.name
        span = telemetry.tracer.begin(
            "vm.launch", category="vm", track=f"vm:{host_name}",
            vm=self.name, sender=message.sender.principal,
            **link_args(message.trace))
        landing = message.landing_id
        if landing is not None:
            state, info = self.firewall.landings.acquire(landing)
            while state == "pending":
                # Another delivery of the same transport is mid-launch;
                # wait for it to resolve rather than racing it.
                yield self.kernel.timeout(LANDING_POLL_SECONDS)
                state, info = self.firewall.landings.acquire(landing)
            if state == "launched":
                # Duplicate transport of an already-landed agent: re-ack
                # with the existing instance instead of hatching a twin.
                span.end(outcome="duplicate", agent=info)
                if telemetry.enabled:
                    telemetry.metrics.inc("vm.duplicate_landings",
                                          host=host_name, vm=self.name)
                yield from self._ack(message, info)
                return
            if state == "tombstoned":
                span.end(outcome="tombstoned", error=info)
                yield from self._nack(
                    message, f"landing refused ({info}): the origin "
                    "aborted this migration or the host crashed after "
                    "it landed")
                return
            # state == "new": this launch holds the pending slot and
            # must resolve it below (record_launch / release).
        try:
            if not self.firewall.policy.can_launch(message.sender, self.name):
                raise VMError(
                    f"policy denies launch by {message.sender.principal!r}")
            payload = loader.read_payload(message.briefcase)
            if payload.kind not in self.accepts:
                raise VMError(
                    f"{self.name} cannot execute {payload.kind!r} payloads "
                    f"(accepts {list(self.accepts)})")
            yield from self.node.host.compute(
                LAUNCH_OVERHEAD_SECONDS +
                payload.size * LAUNCH_PER_BYTE_SECONDS)
            entry = yield from self.prepare_entry(message, payload)
            # Inside the try: register_agent may raise the transient
            # QuotaExceededError (resident-agent quota), which must nack
            # the go/spawn so the sender can back off, not kill this
            # launch process.
            uri = self.launch_agent(message, entry)
        except TaxError as exc:
            self.launch_failures += 1
            if landing is not None:
                # Nothing launched: free the slot so a retry (or a
                # duplicate still in flight) may try again.
                self.firewall.landings.release(landing)
            if telemetry.enabled:
                telemetry.metrics.inc("vm.launch_failures",
                                      host=host_name, vm=self.name)
            span.end(outcome="error", error=str(exc))
            yield from self._nack(message, str(exc))
            return
        if landing is not None:
            self.firewall.landings.record_launch(landing, uri)
        span.end(outcome="ok", agent=uri)
        if telemetry.enabled and span.duration is not None:
            telemetry.metrics.observe(
                "vm.launch_seconds", span.duration,
                host=host_name, vm=self.name)
        yield from self._ack(message, uri)

    def prepare_entry(self, message: Message,
                      payload: loader.Payload) -> Callable:
        """Materialise the agent's entry callable (generator method)."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator template

    def launch_agent(self, message: Message, entry: Callable) -> str:
        """Register and start the agent; returns its URI string."""
        briefcase = message.briefcase.snapshot()
        for folder in TRANSPORT_FOLDERS:
            briefcase.drop(folder)
        if briefcase.has(wellknown.CODE_ORIG):
            # Compile-at-destination launch: the agent keeps carrying its
            # original (source) payload, not the site-local binary.
            briefcase.folder(wellknown.CODE).replace(
                [e.data for e in briefcase.get(wellknown.CODE_ORIG)])
            briefcase.put(wellknown.CODE_KIND,
                          briefcase.get_text(wellknown.CODE_KIND_ORIG))
            briefcase.drop(wellknown.CODE_ORIG)
            briefcase.drop(wellknown.CODE_KIND_ORIG)
        name = briefcase.get_text(wellknown.AGENT_NAME) or \
            getattr(entry, "__name__", "agent")
        principal = message.sender.principal
        wrappers = build_stack(read_wrapper_specs(briefcase),
                               sandbox=self.sandbox)
        ctx = AgentContext(self.node, vm_name=self.name,
                           briefcase=briefcase, principal=principal,
                           wrappers=wrappers)
        mailbox = Mailbox(self.kernel)

        def deliver(inbound: Message) -> bool:
            filtered = wrappers.apply_receive(ctx, inbound)
            if filtered is None:
                return True  # consumed by a wrapper layer
            return mailbox.deliver(filtered)

        registration = self.firewall.register_agent(
            name=name, principal=principal, vm_name=self.name,
            deliver_fn=deliver)
        ctx.attach(registration, mailbox)
        changes = self.firewall.changes
        if changes.sinks:
            # Durable hosts journal the cleaned arrival blob: this exact
            # briefcase (itinerary position included) is what replay
            # relaunches if the host crashes while the agent is resident.
            changes.emit("agent-arrive", instance=registration.instance,
                         name=name, principal=principal, vm=self.name,
                         landing=message.landing_id, briefcase=briefcase)
        retry_config = briefcase.get_json(wellknown.RETRY)
        if retry_config is not None:
            # The policy travels with the agent; the jitter stream is
            # re-derived per instance, so retry schedules stay
            # deterministic across hops without shipping RNG state.
            from repro.sim.rng import RandomStream
            ctx.configure_retry(
                RetryPolicy.from_config(retry_config),
                RandomStream(int(retry_config.get("seed", 0)),
                             name=f"retry/{registration.instance}"))
        process = self.kernel.spawn(
            self._run_agent(ctx, entry),
            name=f"{name}:{registration.instance}@{self.node.host.name}")
        registration.process = process
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.metrics.inc("vm.activations",
                                  host=self.node.host.name, vm=self.name)
            # A new residency: descend from the transport message's
            # causal node (hop count advances across the host boundary),
            # or root a fresh itinerary for untraced launches.
            ctx.trace = telemetry.child_context(message.trace,
                                                advance_hop=True)
        ctx.run_span = telemetry.tracer.begin(
            f"run:{name}", category="agent",
            track=f"host:{self.node.host.name}",
            agent=name, instance=registration.instance,
            vm=self.name, principal=principal, **span_args(ctx.trace))
        wrappers.on_attach(ctx)
        wrappers.on_arrive(ctx)
        self.launched += 1
        return str(self.firewall.uri_for(registration))

    def _run_agent(self, ctx: AgentContext, entry: Callable):
        outcome = "done"
        try:
            result = entry(ctx, ctx.briefcase)
            if inspect.isgenerator(result):
                result = yield from result
            return result
        except StopProcess:
            # The agent moved away with go(); cleanup already happened.
            outcome = "moved"
            return "moved"
        except Interrupt as interrupt:
            ctx.log(f"interrupted: {interrupt.cause}")
            outcome = "killed"
            return "killed"
        except TaxError as exc:
            ctx.log(f"agent failed: {exc}")
            outcome = "failed"
            raise
        finally:
            ctx.finished = True
            if ctx.run_span is not None:
                ctx.run_span.end(outcome=outcome)
            if not ctx.moved:
                ctx.wrappers.on_detach(ctx)
                self.firewall.unregister_agent(ctx.registration.agent_id)
                if ctx.mailbox is not None:
                    ctx.mailbox.close()

    # -- acks ----------------------------------------------------------------------------

    def _ack(self, message: Message, agent_uri: str):
        if message.briefcase.get_text(wellknown.REPLY_TO) is None:
            return
        response = Briefcase()
        response.put(wellknown.STATUS, "ok")
        response.put(wellknown.AGENT_URI, agent_uri)
        yield from self.ctx.reply(message, response)

    def _nack(self, message: Message, error: str):
        self.firewall.log(f"{self.name} launch failed: {error}")
        if message.briefcase.get_text(wellknown.REPLY_TO) is None:
            return
        response = Briefcase()
        response.put(wellknown.STATUS, "error")
        response.put(wellknown.ERROR, error)
        yield from self.ctx.reply(message, response)
