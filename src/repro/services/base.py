"""Service agents: the landing pad's resource mediators.

Paper section 3.3: *"in order to manage arbitrary resources properly,
resources other than memory and CPU time are handled by service agents.
This allows resource allocation mechanisms to handle requests regardless
of which VM the requesting agent is running on."*

A service agent is a persistent system agent with a request loop (started
by its first request, :mod:`repro.agent.system`): each request briefcase
carries an OP folder naming the operation; the service dispatches to
``op_<name>`` (a generator returning the reply briefcase) and answers the
``meet`` with STATUS=ok/error.  Requests are handled serially, which
models a single-threaded Unix service process.
"""

from __future__ import annotations

from repro.core.briefcase import Briefcase
from repro.core.errors import ServiceError, TaxError
from repro.core import wellknown
from repro.agent.context import AgentContext
from repro.agent.system import SystemAgent
from repro.firewall.message import Message


class ServiceAgent(SystemAgent):
    """Base class for the ag_* system services."""

    name = "ag_base"

    def __init__(self, node):
        super().__init__(node)
        self.requests_handled = 0
        self.requests_failed = 0

    def _serve(self, ctx: AgentContext, message: Message):
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
            yield from ctx.reply(message, response)

    def authorize(self, message: Message, op: str) -> bool:
        """Per-service access check; default allows every sender."""
        return True
