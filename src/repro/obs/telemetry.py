"""Telemetry: the one observability object a deployment owns.

The :class:`Telemetry` facade bundles the metrics registry and the span
tracer behind a single enabled/disabled switch.  The kernel owns one
(disabled by default, so plain simulations pay a boolean check and
nothing else); everything holding a kernel reference —  networks,
firewalls, VMs, agent contexts — reaches it as ``kernel.telemetry``.

The clock is bound late (:meth:`bind_clock`) because the telemetry
object is constructed before the kernel whose virtual clock it reads.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.fold import fold_sum
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagation import TraceContext, TraceIdAllocator
from repro.obs.tracing import Tracer


class Telemetry:
    """Metrics registry + span tracer + flight recorder behind one
    switch, plus the deterministic trace-id mint."""

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = False,
                 max_spans: Optional[int] = None):
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        if max_spans is None:
            self.tracer = Tracer(clock, enabled=enabled)
        else:
            self.tracer = Tracer(clock, enabled=enabled,
                                 max_spans=max_spans)
        self.flight = FlightRecorder(enabled=enabled, clock=clock)
        self.ids = TraceIdAllocator()

    # -- switching -----------------------------------------------------------

    def enable(self) -> "Telemetry":
        self.enabled = True
        self.metrics.enabled = True
        self.tracer.enabled = True
        self.flight.enabled = True
        return self

    def disable(self) -> "Telemetry":
        self.enabled = False
        self.metrics.enabled = False
        self.tracer.enabled = False
        self.flight.enabled = False
        return self

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a virtual clock (done by the kernel)."""
        self.tracer.clock = clock
        self.flight.clock = clock

    # -- causal trace contexts ----------------------------------------------

    def new_trace(self) -> Optional[TraceContext]:
        """Root a fresh itinerary trace (None when disabled — callers
        thread the None through, keeping the no-op path allocation-free).
        """
        if not self.enabled:
            return None
        return self.ids.root()

    def child_context(self, parent: Optional[TraceContext],
                      advance_hop: bool = False
                      ) -> Optional[TraceContext]:
        """A child causal node of ``parent`` (root when parent is None).
        ``advance_hop`` marks a host boundary (go/spawn/launch)."""
        if not self.enabled:
            return None
        if parent is None:
            return self.ids.root()
        return self.ids.child(parent, advance_hop=advance_hop)

    # -- cost-ledger flushing ------------------------------------------------

    def flush_ledger(self, ledger, track: str,
                     start: Optional[float] = None, **labels) -> float:
        """Turn a synchronous :class:`~repro.sim.ledger.CostLedger` into
        metrics and back-to-back cost spans.

        Synchronous programs (the Webbot) account their virtual costs
        into a ledger and sleep once for the total; without this flush
        those seconds vanish when the ledger is discarded.  Each category
        becomes a ``cost.seconds``/``cost.bytes`` series and one span on
        ``track``, laid end-to-end from ``start`` (default: now) — the
        shape the sleep actually represents.

        Returns the ledger's total seconds (what the caller must sleep).
        ``ledger`` is duck-typed: anything with ``seconds_by_category``
        and ``bytes_by_category`` dicts works.
        """
        total = fold_sum(ledger.seconds_by_category.values())
        if not self.enabled:
            return total
        cursor = self.tracer.clock() if start is None else start
        for category in sorted(ledger.seconds_by_category):
            seconds = ledger.seconds_by_category[category]
            self.metrics.inc("cost.seconds", seconds,
                             category=category, **labels)
            self.tracer.record(f"cost:{category}", cursor, cursor + seconds,
                               category="cost", track=track,
                               seconds=seconds, **labels)
            cursor += seconds
        for category in sorted(ledger.bytes_by_category):
            self.metrics.inc("cost.bytes",
                             ledger.bytes_by_category[category],
                             category=category, **labels)
        return total

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Machine-readable state: metrics plus tracer tallies."""
        return {
            "enabled": self.enabled,
            "metrics": self.metrics.snapshot(),
            "spans": len(self.tracer.spans),
            "open_spans": self.tracer.open_count,
            "instants": len(self.tracer.instants),
            "dropped_spans": self.tracer.dropped,
        }

    def agent_stats(self, agent_name: str) -> Dict[str, object]:
        """The per-agent counters the admin ``stat`` op reports."""
        value = self.metrics.value
        return {
            "enabled": self.enabled,
            "messages_in": value("agent.messages_in", 0, agent=agent_name),
            "messages_out": value("agent.messages_out", 0,
                                  agent=agent_name),
            "bytes_out": value("agent.bytes_out", 0, agent=agent_name),
            "hops": value("agent.hops", 0, agent=agent_name),
            "cost_seconds": fold_sum(
                s["value"] for s in self.metrics.collect(
                    "cost.seconds", agent=agent_name)),
        }

    def reset(self) -> None:
        """The per-run reset: wipe metrics series, spans, flight-recorder
        rings and the trace-id mint while keeping every registered
        family (and the enabled/disabled switch) intact.

        Scenario plugins that reuse a telemetry hub across back-to-back
        in-process runs (the suite matrix runner) must call this between
        cells — otherwise cumulative state (peak watermarks, counter
        totals, recorder dumps) from one cell corrupts the next cell's
        document.  Constructing a fresh :class:`Telemetry` per run is
        equivalent and is what the built-in scenario drivers do.
        """
        self.metrics.reset()
        self.tracer.reset()
        self.flight.reset()
        self.ids.reset()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"<Telemetry {state} "
                f"spans={len(self.tracer.spans)}>")


def standalone_tracer(clock=None, enabled: bool = True) -> Tracer:
    """A facade-sanctioned span tracer for tools that run *outside* a
    kernel (the monitor log collecting reports in test harnesses).

    Everything simulation-attached must go through the kernel's
    :class:`Telemetry` hub so spans reach exports and honour
    ``enable()``/``disable()`` (OBS001); a standalone tool has no hub,
    and this factory is the one sanctioned way for it to own a private
    timeline instead of constructing :class:`Tracer` directly.
    """
    return Tracer(clock, enabled=enabled)
