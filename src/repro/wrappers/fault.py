"""Fault-tolerance wrapper: checkpoint-to-cabinet and recovery.

Paper section 4 lists fault tolerance among the support multi-hop agents
need but single-hop agents don't — exactly the kind of functionality
that should travel *with* the agent rather than bloat every landing pad.

The :class:`CheckpointWrapper` snapshots the wrapped agent's entire
briefcase (code included — briefcases are relaunchable) into an
``ag_cabinet`` drawer at a stable host on every arrival and/or
departure.  If the agent is later lost — host crash, kill, partition —
:func:`recover` pulls the last checkpoint out of the cabinet and
relaunches it on a VM, resuming the itinerary from the last saved hop.
"""

from __future__ import annotations

from typing import Optional

from repro.core.briefcase import Briefcase
from repro.core.errors import MigrationError, TaxError
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.obs.propagation import link_args
from repro.sim.network import NetworkError
from repro.wrappers.base import AgentWrapper


class CheckpointWrapper(AgentWrapper):
    """Checkpoints the wrapped agent's briefcase to a cabinet drawer.

    Config keys:

    - ``cabinet``: URI string of the ag_cabinet service to store at
      (usually at the home host);
    - ``drawer``: the drawer name (required);
    - ``on``: list of points to checkpoint at — any of ``"arrive"``,
      ``"depart"`` (lifecycle), and ``"send"`` (before every outbound
      briefcase, i.e. at each of the agent's observable actions).
      Default: arrive + depart.
    """

    kind = "checkpoint"

    #: Lifecycle points ``on`` may name.
    VALID_POINTS = ("arrive", "depart", "send")

    def __init__(self, config: Optional[dict] = None):
        super().__init__(config)
        if "cabinet" not in self.config or "drawer" not in self.config:
            raise ValueError(
                "checkpoint wrapper needs 'cabinet' and 'drawer' config")
        self.points = tuple(self.config.get("on", ("arrive", "depart")))
        unknown = sorted(set(self.points) - set(self.VALID_POINTS))
        if unknown:
            raise ValueError(
                f"checkpoint wrapper: unknown point(s) {unknown} in 'on' "
                f"(valid: {list(self.VALID_POINTS)})")
        self.checkpoints_taken = 0

    def _checkpoint(self, ctx, point: str) -> None:
        request = ctx.briefcase.snapshot()
        request.put(wellknown.OP, "put")
        request.put("DRAWER", self.config["drawer"])
        ctx.post(AgentUri.parse(self.config["cabinet"]), request)
        self.checkpoints_taken += 1
        telemetry = ctx.kernel.telemetry
        if telemetry.enabled:
            telemetry.metrics.inc("checkpoint.taken", point=point,
                                  drawer=self.config["drawer"])

    def on_arrive(self, ctx) -> None:
        if "arrive" in self.points:
            self._checkpoint(ctx, "arrive")

    def on_depart(self, ctx, target: AgentUri) -> None:
        if "depart" in self.points:
            self._checkpoint(ctx, "depart")

    def on_send(self, ctx, target: AgentUri, briefcase: Briefcase):
        if "send" in self.points and \
                briefcase.get_text(wellknown.OP) != "put":
            # (Skip the wrapper's own cabinet traffic to avoid recursion.)
            self._checkpoint(ctx, "send")
        return target, briefcase


def recover(ctx, cabinet: "str | AgentUri", drawer: str,
            vm_target: "str | AgentUri", timeout: float = 60.0) -> str:
    """Relaunch the last checkpoint of an agent (generator).

    ``ctx`` must belong to the same principal that owned the lost agent
    (cabinet drawers are principal-scoped).  Returns the relaunched
    agent's URI string.
    """
    request = Briefcase()
    request.put(wellknown.OP, "get")
    request.put("DRAWER", drawer)
    reply = yield from ctx.meet(cabinet, request, timeout=timeout)
    if reply.get_text(wellknown.STATUS) != "ok":
        raise TaxError(
            f"no checkpoint in drawer {drawer!r}: "
            f"{reply.get_text(wellknown.ERROR)}")
    checkpoint = reply.snapshot()
    for transport_folder in (wellknown.STATUS, wellknown.MEET_TOKEN,
                             wellknown.REPLY_TO, wellknown.ERROR):
        checkpoint.drop(transport_folder)
    incarnation = checkpoint.get_text(wellknown.INCARNATION)
    if incarnation is not None:
        # Bump the carried incarnation so reports from the relaunched
        # agent are distinguishable from an orphaned twin still running
        # the old one (the rear guard kills on mismatch).
        try:
            bumped = int(incarnation) + 1
        except ValueError:
            bumped = 1
        checkpoint.drop(wellknown.INCARNATION)
        checkpoint.put(wellknown.INCARNATION, str(bumped))
    # The relaunch is a migration like any other: it carries a landing
    # id so a duplicated or retried transport lands exactly once, and an
    # ambiguous failure poisons the landing rather than leaking a twin.
    try:
        uri = yield from ctx.transport("recover", vm_target, checkpoint,
                                       timeout)
    except (TaxError, NetworkError) as exc:
        raise MigrationError(f"recovery relaunch failed: {exc}") from exc
    telemetry = ctx.kernel.telemetry
    if telemetry.enabled:
        telemetry.metrics.inc("recovery.relaunches", drawer=drawer)
        # The restore is an event in the recovering context's causal
        # story: link it so the trace shows which itinerary pulled the
        # checkpoint back out of the cabinet.
        telemetry.metrics.inc("recovery.checkpoint_restored",
                              drawer=drawer)
        telemetry.tracer.instant(
            "recovery.checkpoint_restored", category="fault",
            track=f"host:{ctx.host_name}", drawer=drawer, agent=uri,
            **link_args(ctx._current_trace()))
        telemetry.tracer.instant(
            "recovery.relaunch", category="fault",
            track=f"host:{ctx.host_name}", drawer=drawer, agent=uri)
    return uri
