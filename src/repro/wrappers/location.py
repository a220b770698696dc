"""Location transparency: logical names over moving agents.

Paper section 4: *"If the agents are to move, one can add a location
transparent wrapper around the broadcast wrapper."*  The design is the
classic home-registry one:

- a **locator service** (:class:`~repro.services.ag_locator.AgLocator`)
  at some stable host maps logical names to current agent URIs;
- the :class:`LocationWrapper` keeps the registry current: every arrival
  re-registers the agent's new URI, termination removes it;
- senders resolve a logical name through :func:`resolve` (or combine
  both steps with :func:`send_via`), so they never need to know where
  the agent currently is.
"""

from __future__ import annotations

from typing import Optional

from repro.core.briefcase import Briefcase
from repro.core.errors import AgentNotFoundError, TaxError
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.wrappers.base import AgentWrapper


class LocationWrapper(AgentWrapper):
    """Publishes the wrapped agent's location to a registry.

    Config keys:

    - ``registry``: URI string of the ag_locator service (required);
    - ``logical``: the stable name under which the agent is published.
    """

    kind = "location"

    def __init__(self, config: Optional[dict] = None):
        super().__init__(config)
        if "registry" not in self.config or "logical" not in self.config:
            raise ValueError(
                "location wrapper needs 'registry' and 'logical' config")
        self.updates_sent = 0

    def _registry(self) -> AgentUri:
        return AgentUri.parse(self.config["registry"])

    def on_arrive(self, ctx) -> None:
        request = Briefcase()
        request.put(wellknown.OP, "update")
        request.put(wellknown.ARGS, {
            "name": self.config["logical"],
            "uri": str(ctx.uri),
        })
        ctx.post(self._registry(), request)
        self.updates_sent += 1

    def on_detach(self, ctx) -> None:
        request = Briefcase()
        request.put(wellknown.OP, "remove")
        request.put(wellknown.ARGS, {"name": self.config["logical"]})
        ctx.post(self._registry(), request)


def resolve(ctx, registry: "str | AgentUri", logical: str,
            timeout: float = 30.0) -> AgentUri:
    """Look a logical name up in a locator registry (generator)."""
    request = Briefcase()
    request.put(wellknown.OP, "lookup")
    request.put(wellknown.ARGS, {"name": logical})
    reply = yield from ctx.meet(registry, request, timeout=timeout)
    if reply.get_text(wellknown.STATUS) != "ok":
        raise AgentNotFoundError(
            f"locator has no entry for {logical!r}: "
            f"{reply.get_text(wellknown.ERROR)}")
    results = reply.get_json(wellknown.RESULTS, {})
    uri = results.get("uri")
    if not uri:
        raise AgentNotFoundError(f"locator has no entry for {logical!r}")
    return AgentUri.parse(uri)


def send_via(ctx, registry: "str | AgentUri", logical: str,
             briefcase: Briefcase, timeout: float = 30.0):
    """Resolve a logical name and send to the current location."""
    target = yield from resolve(ctx, registry, logical, timeout=timeout)
    ok = yield from ctx.send(target, briefcase)
    if not ok:
        raise TaxError(f"send to {logical!r} (at {target}) was dropped")
    return target
