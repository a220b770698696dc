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
   (subclass-specific: sandbox, signature check, or vm_source's compile
   chain, which ends in vm_bin's signature check) and refuses a landing
   tombstoned meanwhile;
3. it reads every carried config (the wrapper stack, the retry policy),
   registers the agent with the firewall (which flushes any messages
   queued ahead of the agent's arrival), and spawns the agent process —
   the commit point: the wrappers' attach/arrive hooks are the agent's
   own first step;
4. it acks the ``go``/``spawn`` with STATUS=ok and the new agent's URI,
   or STATUS=error and a reason.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional, Tuple

from repro.core.briefcase import Briefcase
from repro.core.errors import TaxError, VMError
from repro.core.retry import RetryPolicy
from repro.core import wellknown
from repro.agent.context import TRANSPORT_FOLDERS, AgentContext
from repro.agent.mailbox import Mailbox
from repro.agent.system import SystemAgent
from repro.firewall.message import Message
from repro.obs.propagation import link_args, span_args
from repro.sim.errors import Interrupt, StopProcess
from repro.sim.network import NetworkError
from repro.vm import loader
from repro.vm.sandbox import Sandbox
from repro.wrappers.stack import build_stack, read_wrapper_specs

#: Launch cost model: fixed overhead + per-payload-byte deserialisation.
LAUNCH_OVERHEAD_SECONDS = 0.002
LAUNCH_PER_BYTE_SECONDS = 2e-8

#: How often a launch handler re-checks a landing id another delivery of
#: the same transport is currently resolving.
LANDING_POLL_SECONDS = 0.005


class VirtualMachine(SystemAgent):
    """Common machinery; subclasses define ``accepts`` and entry prep."""

    #: Agent name the VM registers under (e.g. "vm_python").
    name = "vm_base"
    #: Payload kinds this VM can launch.
    accepts: Tuple[str, ...] = ()

    def __init__(self, node, sandbox: Optional[Sandbox] = None):
        super().__init__(node)
        #: A VM registers as an agent of its own VM.
        self.vm_name = self.name
        self.sandbox = sandbox or Sandbox()
        self.launched = 0
        self.launch_failures = 0

    def _serve(self, ctx: AgentContext, message: Message):
        """Launches run concurrently: each gets a process of its own."""
        self.kernel.spawn(
            self.handle_launch_message(message),
            name=f"{self.name}-launch@{self.node.host.name}")
        return
        yield  # pragma: no cover - makes this a generator

    # -- the launch path -------------------------------------------------------------

    def handle_launch_message(self, message: Message):
        """Process one arriving agent briefcase: every VM's launch path.

        A launch that takes the landing slot leaves it one way: the
        spawn records it, and the ``finally`` releases it on every other
        exit — a refusal, an untyped error, or the kernel closing.
        """
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
                yield from self._reply(message, "ok", info)
                return
            if state == "tombstoned":
                span.end(outcome="tombstoned", error=info)
                yield from self._reply(
                    message, "error", f"landing refused ({info}): "
                    "the origin aborted this migration or the host "
                    "crashed after it landed")
                return
        uri = None
        try:
            payload = yield from self._admit(message)
            entry = yield from self.prepare_entry(message, payload)
            if landing is not None and \
                    self.firewall.landings.status(landing) == "tombstoned":
                # The origin aborted, or the host crashed, while the
                # entry was prepared (vm_source's compile chain meets
                # two services): the slot is no longer ours to launch.
                raise VMError("landing refused: tombstoned while the "
                              "launch was prepared")
            # Inside the try: register_agent may raise the transient
            # QuotaExceededError (resident-agent quota), which must nack
            # the go/spawn so the sender can back off, not kill this
            # launch process.
            uri = self.launch_agent(message, entry)
            if landing is not None:
                self.firewall.landings.record_launch(landing, uri)
        except TaxError as exc:
            refusal = str(exc)
        finally:
            if uri is None and landing is not None:
                # Nothing launched: free the slot so a retry (or a
                # duplicate still in flight) may try again.
                self.firewall.landings.release(landing)
        if uri is None:
            self.launch_failures += 1
            if telemetry.enabled:
                telemetry.metrics.inc("vm.launch_failures",
                                      host=host_name, vm=self.name)
            span.end(outcome="error", error=refusal)
            yield from self._reply(message, "error", refusal)
            return
        span.end(outcome="ok", agent=uri)
        if telemetry.enabled and span.duration is not None:
            telemetry.metrics.observe(
                "vm.launch_seconds", span.duration,
                host=host_name, vm=self.name)
        yield from self._reply(message, "ok", uri)

    def _admit(self, message: Message) -> loader.Payload:
        """The launch policy, the payload and its kind, and the launch
        CPU: what every VM checks and charges before it materialises
        (generator method; returns the payload)."""
        if not self.firewall.policy.can_launch(message.sender, self.name):
            raise VMError(
                f"policy denies launch by {message.sender.principal!r}")
        payload = loader.read_payload(message.briefcase)
        if payload.kind not in self.accepts:
            raise VMError(
                f"{self.name} cannot execute {payload.kind!r} payloads "
                f"(accepts {list(self.accepts)})")
        yield from self.node.host.compute(
            LAUNCH_OVERHEAD_SECONDS + payload.size * LAUNCH_PER_BYTE_SECONDS)
        return payload

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
        name = briefcase.get_text(wellknown.AGENT_NAME) or \
            getattr(entry, "__name__", "agent")
        principal = message.sender.principal
        wrappers = build_stack(read_wrapper_specs(briefcase),
                               sandbox=self.sandbox)
        retry_config = briefcase.get_json(wellknown.RETRY)
        retry_policy = RetryPolicy.from_config(retry_config)
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
        if retry_policy is not None:
            # The policy travels with the agent; the jitter stream is
            # re-derived per instance, so retry schedules stay
            # deterministic across hops without shipping RNG state.
            from repro.sim.rng import RandomStream
            ctx.configure_retry(
                retry_policy,
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
        self.launched += 1
        return str(self.firewall.uri_for(registration))

    def _run_agent(self, ctx: AgentContext, entry: Callable):
        outcome = "done"
        try:
            # The spawn committed the launch: a hook that fails from
            # here on fails the agent, never the acked landing.
            ctx.wrappers.on_attach(ctx)
            ctx.wrappers.on_arrive(ctx)
            result = entry(ctx, ctx.briefcase)
            if inspect.isgenerator(result):
                result = yield from result
            return result
        except StopProcess:
            # The agent moved away with go(); cleanup already happened.
            outcome = "moved"
            return "moved"
        except Interrupt:
            outcome = "killed"
            return "killed"
        except TaxError:
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

    # -- the reply ---------------------------------------------------------------------

    def _reply(self, message: Message, status: str, detail: str):
        """Answer the launch: STATUS=ok with the agent's URI as
        ``detail``, or STATUS=error with the reason.

        A reply that cannot leave (a down link, an unreadable REPLY-TO)
        is a lost ack: the landing registry answers the sender's retry.
        """
        try:
            if message.briefcase.get_text(wellknown.REPLY_TO) is None:
                return
            response = Briefcase()
            response.put(wellknown.STATUS, status)
            response.put(wellknown.AGENT_URI if status == "ok"
                         else wellknown.ERROR, detail)
            yield from self.ctx.reply(message, response)
        except (TaxError, NetworkError):
            telemetry = self.kernel.telemetry
            if telemetry.enabled:
                telemetry.metrics.inc("vm.reply_failures",
                                      host=self.node.host.name, vm=self.name)
