"""Object agents: class-based agents shipped by pickling.

Most TAX agents keep all transportable state in their briefcase (the
paper's model).  Object agents are the complementary style several
contemporary systems used: the agent is an *instance* whose attributes
are the state, moved between hosts by pickling.  The class itself moves
by reference (it must be installed at the destination and pass the
vm_pickle whitelist), the state by value.

Subclass :class:`ObjectAgent` and implement :meth:`run` as a generator
taking the context and the launch briefcase::

    class Counter(ObjectAgent):
        def __init__(self):
            self.visits = []

        def run(self, ctx, bc):
            self.visits.append(ctx.host_name)
            nxt = bc.folder("HOSTS").pop_first()
            if nxt is None:
                yield from ctx.send(bc.get_text("HOME"),
                                    Briefcase({"VISITS": self.visits}))
                return
            yield from self.go_with_state(ctx, nxt.as_text())

Because ``go`` ships only the briefcase, :meth:`go_with_state`
re-pickles the (possibly mutated) instance into the CODE folder before
moving, so the object state survives the hop.
"""

from __future__ import annotations

from repro.core import wellknown
from repro.vm import loader


class ObjectAgent:
    """Base class for pickled, stateful agents."""

    def run(self, ctx, briefcase):
        """The agent body (a generator).  Must be overridden."""
        raise NotImplementedError
        yield  # pragma: no cover - generator template

    def go_with_state(self, ctx, vm_target, timeout: float = 60.0):
        """Re-pack this instance (with its current attribute state) into
        the briefcase and migrate.  Does not return on success."""
        payload = loader.pack_pickle(self)
        ctx.briefcase.put(wellknown.CODE_KIND, payload.kind)
        ctx.briefcase.folder(wellknown.CODE).replace([payload.blob])
        yield from ctx.go(vm_target, timeout=timeout)


def launch_briefcase(agent: ObjectAgent, agent_name: str = "objagent"):
    """A launch-ready briefcase carrying a pickled object agent."""
    from repro.core.briefcase import Briefcase
    briefcase = Briefcase()
    loader.install_payload(briefcase, loader.pack_pickle(agent),
                           agent_name=agent_name)
    return briefcase
