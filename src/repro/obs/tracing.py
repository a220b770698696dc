"""The span tracer: begin/end intervals in *virtual* kernel time.

Spans record what the simulation spent its virtual seconds on — an agent
instance running at a host, a ``go`` hop, a network transfer, a message
sitting in a firewall queue, a synchronous cost-ledger segment.  Each
span lives on a named **track** (one row in a trace viewer: a host, an
agent, a link); spans on the same track nest by time containment, which
is exactly how Chrome's ``trace_event`` format and Perfetto render them.

Two export formats:

- **JSONL** (:meth:`Tracer.to_jsonl`): one JSON object per line, stable
  and greppable — the machine-readable archive format;
- **Chrome trace_event** (:meth:`Tracer.to_chrome`): a
  ``{"traceEvents": [...]}`` document loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Virtual seconds
  map to trace microseconds.

Like the metrics registry, a disabled tracer records nothing:
:meth:`begin` hands back a shared null span whose ``end`` does nothing,
so occasional instrumentation needs no ``if`` at the call site.  The
per-message sites (the pending queue's ``fw.queue_wait``, the network's
``net.transfer``) test :attr:`Tracer.enabled` first instead: a call to
the null span still costs its frames and its arguments.

With tracing on, :meth:`Tracer.begin` and :meth:`Span.end` are one
frame each (plus the clock read, which the kernel binds as a C-level
callable).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

#: Virtual seconds → trace_event microseconds.
_US = 1_000_000.0

#: Default cap on retained finished spans (a runaway-scenario backstop).
DEFAULT_MAX_SPANS = 200_000


class Span:
    """One open or finished interval on a track.

    An open span holds its tracer, to read the clock and be kept when it
    ends; a finished one is kept *by* the tracer and forgets it, so a
    tracer and its spans are no reference cycle.
    """

    __slots__ = ("tracer", "name", "category", "track", "start", "end_time",
                 "args")

    def __init__(self, tracer: Optional["Tracer"], name: str, category: str,
                 track: str, start: float, args: Dict):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.track = track
        self.start = start
        self.end_time: Optional[float] = None
        self.args = args

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start

    def end(self, at: Optional[float] = None, **args) -> "Span":
        """Finish the span at ``at`` (default: now).  Idempotent.

        One frame: the tracer's bookkeeping (one span fewer open, kept
        or counted as dropped past ``max_spans``) is written out here.
        """
        if self.end_time is not None:
            return self
        if args:
            self.args.update(args)
        tracer, self.tracer = self.tracer, None
        self.end_time = tracer.clock() if at is None else at
        tracer._open -= 1
        spans = tracer.spans
        if len(spans) < tracer.max_spans:
            spans.append(self)
        else:
            tracer.dropped += 1
        return self

    def to_dict(self) -> dict:
        return {"kind": "span", "name": self.name, "cat": self.category,
                "track": self.track, "start": self.start,
                "end": self.end_time, "dur": self.duration,
                "args": self.args}

    def __repr__(self) -> str:
        state = f"[{self.start:g}..{self.end_time:g}]" if self.finished \
            else f"[{self.start:g}..)"
        return f"<Span {self.name!r} {self.track} {state}>"


class _NullSpan:
    """The span a disabled tracer hands out; every method is a no-op."""

    __slots__ = ()
    name = category = track = ""
    start = 0.0
    end_time: Optional[float] = None
    finished = False
    duration: Optional[float] = None
    args: Dict = {}

    def end(self, at=None, **args) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()

_new_span = object.__new__


class Tracer:
    """Collects spans and instant events against a virtual clock."""

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = True,
                 max_spans: int = DEFAULT_MAX_SPANS):
        self.clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.instants: List[dict] = []
        self.dropped = 0
        self._open = 0

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, category: str = "", track: str = "main",
              **args):
        """Open a span at the current instant; call ``.end()`` to finish.

        Spans may straddle ``yield``s — keep the handle, end it later.
        """
        if not self.enabled:
            return NULL_SPAN
        self._open += 1
        # ``Span.__init__`` written out: one frame per span begun.
        span = _new_span(Span)
        span.tracer = self
        span.name = name
        span.category = category
        span.track = track
        span.start = self.clock()
        span.end_time = None
        span.args = args
        return span

    def record(self, name: str, start: float, end: float,
               category: str = "", track: str = "main", **args):
        """A finished span at explicit virtual times (for costs accounted
        synchronously and spent later)."""
        if not self.enabled:
            return NULL_SPAN
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        span = Span(None, name, category, track, start, args)
        span.end_time = end
        self._keep(span)
        return span

    def instant(self, name: str, category: str = "", track: str = "main",
                at: Optional[float] = None, **args) -> None:
        """A point event (a monitor report, an expiry, a rejection)."""
        if not self.enabled:
            return
        if len(self.instants) >= self.max_spans:
            self.dropped += 1
            return
        self.instants.append({
            "kind": "instant", "name": name, "cat": category,
            "track": track, "t": self.clock() if at is None else at,
            "args": args})

    def span(self, name: str, category: str = "", track: str = "main",
             **args):
        """Context manager for spans that do not straddle a yield."""
        return _SpanContext(self, name, category, track, args)

    def _keep(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    # -- introspection -------------------------------------------------------

    @property
    def open_count(self) -> int:
        """Spans begun but not yet ended."""
        return self._open

    def find(self, name: Optional[str] = None,
             track: Optional[str] = None,
             category: Optional[str] = None) -> List[Span]:
        return [s for s in self.spans
                if (name is None or s.name == name)
                and (track is None or s.track == track)
                and (category is None or s.category == category)]

    # -- export --------------------------------------------------------------

    def _sorted_spans(self) -> List[Span]:
        # Start-ascending, then longest-first so parents precede children
        # at equal start times.
        return sorted(self.spans,
                      key=lambda s: (s.start, -(s.duration or 0.0),
                                     s.track, s.name))

    def to_jsonl(self) -> str:
        """One JSON object per line: spans then instants, time-sorted."""
        rows = [span.to_dict() for span in self._sorted_spans()]
        rows.extend(sorted(self.instants,
                           key=lambda i: (i["t"], i["track"], i["name"])))
        return "\n".join(json.dumps(row, sort_keys=True) for row in rows)

    def to_chrome(self) -> dict:
        """The ``trace_event`` document (Perfetto / chrome://tracing)."""
        tracks = sorted({s.track for s in self.spans} |
                        {i["track"] for i in self.instants})
        tids = {track: i + 1 for i, track in enumerate(tracks)}
        events: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": "TAX simulation (virtual time)"}}]
        for track, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": track}})
        for span in self._sorted_spans():
            events.append({
                "name": span.name, "cat": span.category or "span",
                "ph": "X", "pid": 1, "tid": tids[span.track],
                "ts": span.start * _US,
                "dur": (span.duration or 0.0) * _US,
                "args": span.args})
        for inst in sorted(self.instants,
                           key=lambda i: (i["t"], i["track"], i["name"])):
            events.append({
                "name": inst["name"], "cat": inst["cat"] or "instant",
                "ph": "i", "s": "t", "pid": 1, "tid": tids[inst["track"]],
                "ts": inst["t"] * _US, "args": inst["args"]})
        events.extend(self._flow_events(tids))
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"clock": "virtual-seconds",
                              "dropped_spans": self.dropped,
                              "open_spans": self.open_count}}

    def _flow_events(self, tids: Dict[str, int]) -> List[dict]:
        """Perfetto flow (``s``/``f``) arrows between causally linked
        spans on *different* tracks.

        Spans stamped by the propagation layer carry ``span_id`` /
        ``parent_span_id`` args; each cross-track parent→child edge
        becomes one flow: the start (``s``) anchors inside the parent
        slice, the finish (``f``, ``bp:"e"``) binds to the child's
        enclosing slice at its start.  Enumeration follows the already
        deterministic span sort, so exports stay byte-identical across
        runs.
        """
        by_id: Dict[str, Span] = {}
        ordered = self._sorted_spans()
        for span in ordered:
            span_id = span.args.get("span_id")
            if isinstance(span_id, str) and span_id not in by_id:
                by_id[span_id] = span
        flows: List[dict] = []
        flow_id = 0
        for child in ordered:
            parent_id = child.args.get("parent_span_id")
            parent = by_id.get(parent_id) if parent_id else None
            if parent is None or parent is child or \
                    parent.track == child.track:
                continue
            flow_id += 1
            anchor = min(max(child.start, parent.start),
                         parent.end_time if parent.finished
                         else child.start)
            flows.append({
                "name": "trace", "cat": "flow", "ph": "s", "id": flow_id,
                "pid": 1, "tid": tids[parent.track],
                "ts": anchor * _US})
            flows.append({
                "name": "trace", "cat": "flow", "ph": "f", "bp": "e",
                "id": flow_id, "pid": 1, "tid": tids[child.track],
                "ts": child.start * _US})
        return flows

    def export_chrome(self, path: str) -> int:
        """Write the Chrome trace document; returns the event count."""
        document = self.to_chrome()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
        return len(document["traceEvents"])

    def export_jsonl(self, path: str) -> int:
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            if text:
                handle.write(text + "\n")
        return 0 if not text else text.count("\n") + 1

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"<Tracer {state} spans={len(self.spans)} "
                f"open={self.open_count} instants={len(self.instants)}>")


class _SpanContext:
    """``with tracer.span(...)``: begin on enter, end on exit."""

    __slots__ = ("_tracer", "_params", "span")

    def __init__(self, tracer, name, category, track, args):
        self._tracer = tracer
        self._params = (name, category, track, args)
        self.span = None

    def __enter__(self):
        name, category, track, args = self._params
        self.span = self._tracer.begin(name, category, track, **args)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.span.end(outcome="error" if exc_type else "ok")
        return False
