"""The monitoring wrapper (the paper's rwWebbot).

Paper section 5: *"In order for us to monitor and keep control of the
application, we added another wrapper around mwWebbot, called rwWebbot.
This wrapper reports back to a monitoring tool about the location of the
agent it wraps ... and can be queried about the status of the
computation."*

The wrapper does two things, both without the wrapped agent's knowledge:

- **location reporting** — every arrival/departure/finish posts an event
  briefcase to the configured monitor URI;
- **status queries** — inbound messages with OP=``status-query`` are
  answered by the wrapper itself (consumed before the agent sees them).

Both paths feed the system telemetry (:mod:`repro.obs`) as well: reports
become instant events on the tracer, and status replies carry the live
per-agent metrics the registry holds — so the rwWebbot protocol stays
paper-faithful on the wire while the answers gain span/metric data.

:class:`MonitorLog` is the matching "monitoring tool": a collector that
accumulates the reports for inspection and, when given a tracer,
reconstructs per-host residency spans from arrival/departure events.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.briefcase import Briefcase
from repro.core.errors import BriefcaseError
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.firewall.message import Message
from repro.obs.telemetry import standalone_tracer
from repro.obs.tracing import Tracer
from repro.wrappers.base import AgentWrapper

OP_STATUS_QUERY = "status-query"
EVENT_FOLDER = "MONITOR-EVENT"


class MonitorWrapper(AgentWrapper):
    """Reports location, answers status queries.

    Config keys:

    - ``monitor``: URI string of the monitoring tool (optional — without
      it the wrapper only answers queries);
    - ``tag``: label included in every report (defaults to the agent name);
    - ``heartbeat``: interval in seconds — when set, the wrapper posts a
      periodic ``heartbeat`` report while the agent runs, which is what
      lets a rear guard detect a *silently* lost agent (a crashed host
      sends nothing, including no "finished").
    """

    kind = "monitor"

    def __init__(self, config: Optional[dict] = None):
        super().__init__(config)
        self.messages_forwarded = 0

    # -- reporting ------------------------------------------------------------------

    def _report(self, ctx, event: str, extra: Optional[dict] = None) -> None:
        if not getattr(ctx.node, "alive", True):
            # A crashed host reports nothing — not even the "finished"
            # fired by the unwinding agent process.  Silence is the
            # signal the rear guard acts on.
            return
        tag = self.config.get("tag", ctx.name if ctx.registration
                              else "agent")
        telemetry = ctx.kernel.telemetry
        if telemetry.enabled:
            telemetry.metrics.inc("monitor.reports", tag=tag, event=event)
            telemetry.tracer.instant(
                f"monitor.{event}", category="monitor",
                track=f"host:{ctx.host_name}", tag=tag,
                **(extra or {}))
        monitor = self.config.get("monitor")
        if monitor is None:
            return
        body = {
            "event": event,
            "agent": f"{ctx.name}:{ctx.instance}" if ctx.registration
            else ctx.vm_name,
            "tag": tag,
            "host": ctx.host_name,
            "t": ctx.now,
        }
        incarnation = ctx.briefcase.get_text(wellknown.INCARNATION)
        if incarnation is not None:
            # Carried only by incarnation-stamped agents (see
            # wellknown.INCARNATION): lets a rear guard tell reports of
            # the live incarnation from an orphaned twin's.
            body["incarnation"] = incarnation
        body.update(extra or {})
        briefcase = Briefcase()
        briefcase.put(EVENT_FOLDER, body)
        ctx.post(AgentUri.parse(monitor), briefcase)

    def on_attach(self, ctx) -> None:
        interval = self.config.get("heartbeat")
        if interval:
            ctx.kernel.spawn(self._heartbeat_loop(ctx, float(interval)),
                             name=f"heartbeat:{ctx.vm_name}")

    def _heartbeat_loop(self, ctx, interval: float):
        while True:
            yield ctx.kernel.timeout(interval)
            if ctx.finished or ctx.moved or \
                    not getattr(ctx.node, "alive", True):
                return
            self._report(ctx, "heartbeat")

    def on_arrive(self, ctx) -> None:
        self._report(ctx, "arrived")

    def on_depart(self, ctx, target: AgentUri) -> None:
        self._report(ctx, "departing", {"to": str(target)})

    def on_detach(self, ctx) -> None:
        self._report(ctx, "finished",
                     {"results": len(ctx.briefcase.folder(wellknown.RESULTS))})

    # -- status queries ----------------------------------------------------------------

    def _status(self, ctx) -> dict:
        status = {
            "agent": f"{ctx.name}:{ctx.instance}",
            "host": ctx.host_name,
            "results_so_far": len(ctx.briefcase.folder(wellknown.RESULTS)),
            "stops_remaining": len(ctx.briefcase.folder("ITINERARY")),
            "t": ctx.now,
        }
        # Live telemetry: the agent's own counters plus its open
        # lifecycle span, pulled straight from the system registry.
        telemetry = ctx.kernel.telemetry
        status["telemetry"] = telemetry.agent_stats(ctx.name)
        if telemetry.enabled and ctx.run_span is not None \
                and not ctx.run_span.finished:
            status["telemetry"]["running_since"] = ctx.run_span.start
        return status

    def on_receive(self, ctx, message: Message) -> Optional[Message]:
        if message.briefcase.get_text(wellknown.OP) == OP_STATUS_QUERY:
            reply_to = message.briefcase.get_text(wellknown.REPLY_TO)
            if reply_to is not None:
                response = Briefcase()
                response.put(wellknown.STATUS, "ok")
                response.put(wellknown.RESULTS, self._status(ctx))
                token = message.briefcase.get_text(wellknown.MEET_TOKEN)
                if token is not None:
                    response.put(wellknown.MEET_TOKEN, token)
                ctx.post(AgentUri.parse(reply_to), response)
            return None
        self.messages_forwarded += 1
        return message


def read_event(message: Message) -> Optional[dict]:
    """The monitor report ``message`` carries; None if none or unreadable."""
    element = message.briefcase.get_first(EVENT_FOLDER)
    try:
        return None if element is None else element.as_object()
    except BriefcaseError:
        return None


class MonitorLog:
    """The monitoring tool: collects reports sent by MonitorWrappers.

    Attach with :meth:`agent_main` as a py-ref agent, or wire
    :meth:`deliver` straight into a registration for test use.

    The log delegates to a span :class:`~repro.obs.tracing.Tracer`
    (its own by default, or the system one if passed in): every report
    becomes an instant event, and each *arrived → departing/finished*
    pair becomes a residency span ``at:<host>`` on the agent's monitor
    track — so the paper's ad-hoc location log and the system trace are
    one and the same timeline.
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self.events = []
        self.tracer = tracer if tracer is not None \
            else standalone_tracer()
        #: tag → the latest unmatched "arrived" event, awaiting departure.
        self._arrivals: Dict[str, dict] = {}

    def deliver(self, message: Message) -> bool:
        event = read_event(message)
        if event is not None:
            self.events.append(event)
            self._trace(event)
        return True

    def _trace(self, event: dict) -> None:
        tag = event.get("tag", "agent")
        track = f"monitor:{tag}"
        kind = event.get("event", "report")
        when = event.get("t", 0.0)
        self.tracer.instant(f"monitor.{kind}", category="monitor",
                            track=track, at=when, host=event.get("host"),
                            agent=event.get("agent"))
        if kind == "arrived":
            self._arrivals[tag] = event
            return
        if kind not in ("departing", "finished"):
            # Heartbeats and other periodic reports must not consume
            # the pending arrival, or residency spans would break.
            return
        arrival = self._arrivals.pop(tag, None)
        # A report overtaken in flight can arrive after its successor:
        # a residency that would end before it starts is skipped.
        if arrival is not None and arrival.get("t", when) <= when:
            self.tracer.record(
                f"at:{arrival.get('host')}", arrival.get("t", when), when,
                category="monitor", track=track,
                agent=arrival.get("agent"), outcome=kind)

    def locations(self) -> list:
        return [(e["t"], e["host"], e["event"]) for e in self.events]

    def last_known_host(self, tag: Optional[str] = None) -> Optional[str]:
        for event in reversed(self.events):
            if tag is None or event.get("tag") == tag:
                return event["host"]
        return None

    def residency_spans(self, tag: Optional[str] = None) -> list:
        """The reconstructed ``at:<host>`` spans (one per visited host)."""
        spans = self.tracer.find(category="monitor")
        if tag is not None:
            spans = [s for s in spans if s.track == f"monitor:{tag}"]
        return [s for s in spans if s.name.startswith("at:")]
