"""Service agents: the landing pad's resource mediators.

Paper section 3.3: *"in order to manage arbitrary resources properly,
resources other than memory and CPU time are handled by service agents.
This allows resource allocation mechanisms to handle requests regardless
of which VM the requesting agent is running on."*

A service agent is a persistent system agent with a request loop: each
request briefcase carries an OP folder naming the operation; the service
dispatches to ``op_<name>`` (a generator returning the reply briefcase)
and answers the ``meet`` with STATUS=ok/error.  Requests are handled
serially, which models a single-threaded Unix service process.
"""

from __future__ import annotations

from repro.core.briefcase import Briefcase
from repro.core.errors import ServiceError, TaxError
from repro.core.identity import SYSTEM_PRINCIPAL
from repro.core import wellknown
from repro.agent.context import AgentContext
from repro.agent.mailbox import Mailbox
from repro.firewall.message import Message


class ServiceAgent:
    """Base class for the ag_* system services."""

    name = "ag_base"

    def __init__(self, node):
        self.node = node
        self.ctx: AgentContext = None
        self.requests_handled = 0
        self.requests_failed = 0

    @property
    def kernel(self):
        return self.node.kernel

    @property
    def firewall(self):
        return self.node.firewall

    def boot(self) -> None:
        mailbox = Mailbox(self.kernel)
        self.ctx = AgentContext(self.node, vm_name="vm_python",
                                briefcase=Briefcase(),
                                principal=SYSTEM_PRINCIPAL)
        registration = self.firewall.register_agent(
            name=self.name, principal=SYSTEM_PRINCIPAL, vm_name="vm_python",
            deliver_fn=mailbox.deliver)
        self.ctx.attach(registration, mailbox)
        process = self.kernel.spawn(
            self._loop(), name=f"{self.name}@{self.node.host.name}")
        registration.process = process

    def _loop(self):
        while True:
            message = yield from self.ctx.recv(
                match=lambda m: not self.ctx.is_pending_reply(m))
            yield from self._handle_one(message)

    def _handle_one(self, message: Message):
        op = message.briefcase.get_text(wellknown.OP)
        try:
            if not self.authorize(message, op):
                raise ServiceError(
                    f"{self.name}: {message.sender.principal!r} is not "
                    f"authorized for op {op!r}")
            handler = None
            if op is not None:
                handler = getattr(self, f"op_{op.replace('-', '_')}", None)
            if handler is None:
                raise ServiceError(f"{self.name}: unknown op {op!r}")
            response = yield from handler(message)
            if response.get_text(wellknown.STATUS) is None:
                response.put(wellknown.STATUS, "ok")
            self.requests_handled += 1
        except TaxError as exc:
            self.requests_failed += 1
            response = Briefcase()
            response.put(wellknown.STATUS, "error")
            response.put(wellknown.ERROR, str(exc))
        if message.briefcase.get_text(wellknown.REPLY_TO) is not None:
            yield from self.ctx.reply(message, response)

    def authorize(self, message: Message, op: str) -> bool:
        """Per-service access check; default allows every sender."""
        return True
