"""System agents: the landing pad's VMs and service agents.

Paper sections 3.3 and 4 keep the landing pad minimal: its VMs and
service agents are resource mediators that run when a request reaches
them.  A system agent therefore *registers* at boot — its instance id,
its admin ``list`` row, its ``fw.registrations`` count and its journal
``agent-spawn`` record exist from the start — but its context, mailbox
and loop process are built on its first delivery.  A host whose
services are never asked holds no process for them and fires no event.

The first delivery starts the loop with that message as its first, so
it pushes the one event the waiter of a loop parked in ``recv`` would
have pushed, in the same place.  A delivery made before such a loop
would have taken its first step — a parked message flushed at
registration, a dead letter retransmitted by the restart that
re-registered the agent — is queued, and the loop starts at the place
that first step would have taken and reads the queue through ``recv``,
exactly as a loop spawned at registration does.
"""

from __future__ import annotations

from typing import Optional

from repro.core.briefcase import Briefcase
from repro.core.identity import SYSTEM_PRINCIPAL
from repro.agent.context import AgentContext
from repro.agent.mailbox import Mailbox
from repro.firewall.message import Message


class SystemAgent:
    """What VMs and service agents share: the boot and the loop.

    A subclass defines :meth:`_serve`, the loop's step for one message
    (serial handling for a service, a process per launch for a VM).
    """

    #: Agent name the system agent registers under.
    name = "system"
    #: VM the registration names.
    vm_name = "vm_python"

    def __init__(self, node):
        self.node = node
        self._residency: Optional[Residency] = None

    @property
    def kernel(self):
        return self.node.kernel

    @property
    def firewall(self):
        return self.node.firewall

    @property
    def ctx(self) -> AgentContext:
        """The current registration's context, built on first use: the
        loop's, and what a process the agent spawned reads (an
        ``ag_cron`` job firing after a restart sends with the new one)."""
        residency = self._residency
        return residency.ctx or residency.context()

    def boot(self) -> None:
        """Register with the firewall (again, after a host restart)."""
        self._residency = Residency(self)

    def _unlink(self) -> None:
        """Let go of the residency, which points back at the agent (for
        :meth:`~repro.system.cluster.TaxCluster.close`)."""
        self._residency = None

    def _run(self, ctx: AgentContext, message: Optional[Message]):
        """The loop: serve ``message`` (the delivery that started it, if
        any), then each message ``recv`` takes, one ``_serve`` at a
        time."""
        if message is not None:
            # What recv observes of each message it hands over.
            ctx._sanitize(message.briefcase, "recv")
        # The exclusion predicate keeps the loop from stealing replies to
        # meets the agent's own handlers issued.
        match = lambda m: not ctx.is_pending_reply(m)
        while True:
            if message is None:
                message = yield from ctx.recv(match=match)
            yield from self._serve(ctx, message)
            message = None

    def _serve(self, ctx: AgentContext, message: Message):
        """Handle one message (generator method)."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator template


class Residency:
    """One registration of a system agent, from boot to crash or kill.

    It is the registration's ``process``, and stands for the loop: alive
    until the loop ends, and an interrupt (a crash or a kill, which
    remove the registration with it) reaches the loop only once it has
    started.
    """

    __slots__ = ("agent", "kernel", "registration", "ctx", "process",
                 "_mailbox", "_place")

    def __init__(self, agent: SystemAgent):
        node = agent.node
        self.agent = agent
        self.kernel = node.kernel
        self.ctx: Optional[AgentContext] = None
        self.process = None
        self._mailbox: Optional[Mailbox] = None
        #: Where a loop spawned at registration takes its first step;
        #: None while the registration (and its flush) is under way.
        self._place = None
        self.registration = registration = node.firewall.register_agent(
            name=agent.name, principal=SYSTEM_PRINCIPAL,
            vm_name=agent.vm_name, deliver_fn=self.deliver)
        registration.process = self
        self._place = self.kernel.hold_place()
        if self._mailbox is not None:
            # The registration flushed parked messages to the mailbox.
            self._start(None)

    @property
    def is_alive(self) -> bool:
        return self.process is None or self.process.is_alive

    def interrupt(self, cause=None) -> None:
        if self.process is not None:
            self.process.interrupt(cause)

    def context(self) -> AgentContext:
        """Build the registration's context, with its mailbox."""
        agent = self.agent
        mailbox = self._mailbox
        if mailbox is None:
            mailbox = self._mailbox = Mailbox(self.kernel)
        ctx = self.ctx = AgentContext(agent.node, vm_name=agent.vm_name,
                                      briefcase=Briefcase(),
                                      principal=SYSTEM_PRINCIPAL)
        ctx.attach(self.registration, mailbox)
        return ctx

    def deliver(self, message: Message) -> bool:
        """The registration's delivery: the mailbox once the loop runs."""
        if self.process is None:
            place = self._place
            if place is not None and self.kernel.fired_past(place):
                ctx = self.ctx or self.context()
                if not ctx.is_pending_reply(message):
                    self._start(message)
                    return True
            else:
                # A loop spawned at registration has not taken its first
                # step yet: it would find the message queued.
                if self._mailbox is None:
                    self._mailbox = Mailbox(self.kernel)
                if place is not None:
                    self._start(None)
        return self._mailbox.deliver(message)

    def _start(self, message: Optional[Message]) -> None:
        """Spawn the loop: now with its first ``message``, or at the held
        place to read its queue."""
        agent = self.agent
        loop = agent._run(self.ctx or self.context(), message)
        name = f"{agent.name}@{agent.node.host.name}"
        if message is None:
            self.process = self.kernel.spawn_in(self._place, loop, name)
        else:
            self.process = self.kernel.spawn(loop, name)
