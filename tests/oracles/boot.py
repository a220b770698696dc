"""The eager system-agent boot: context, mailbox and loop built at
registration, the boot every VM and service agent had before its loop
started on its first delivery.

``eager_boot`` replaces :meth:`repro.agent.system.SystemAgent.boot`
while :func:`eager_system_agents` is active, and the agent's ``ctx`` is
the context it built last.  The loop is the product's own ``_run``,
spawned at once with no first message, so it parks in ``recv`` after
one bootstrap event.
"""

import contextlib
from operator import attrgetter

from repro.agent.context import AgentContext
from repro.agent.mailbox import Mailbox
from repro.agent.system import SystemAgent
from repro.core.briefcase import Briefcase
from repro.core.identity import SYSTEM_PRINCIPAL


def eager_boot(agent):
    mailbox = Mailbox(agent.kernel)
    ctx = AgentContext(agent.node, vm_name=agent.vm_name,
                       briefcase=Briefcase(), principal=SYSTEM_PRINCIPAL)
    registration = agent.firewall.register_agent(
        name=agent.name, principal=SYSTEM_PRINCIPAL, vm_name=agent.vm_name,
        deliver_fn=mailbox.deliver)
    ctx.attach(registration, mailbox)
    agent.eager_ctx = ctx
    registration.process = agent.kernel.spawn(
        agent._run(ctx, None), name=f"{agent.name}@{agent.node.host.name}")


@contextlib.contextmanager
def eager_system_agents():
    """Boot every VM and service agent eagerly inside the block."""
    boot, ctx = SystemAgent.boot, SystemAgent.ctx
    SystemAgent.boot = eager_boot
    SystemAgent.ctx = property(attrgetter("eager_ctx"))
    try:
        yield
    finally:
        SystemAgent.boot, SystemAgent.ctx = boot, ctx
