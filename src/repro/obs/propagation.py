"""Causal trace propagation: one context, carried across every hop.

PR-1's tracer sees each host in isolation: a ``go``/``spawn``/``meet``
chain shatters into disconnected per-host spans.  This module defines
the compact W3C-traceparent-style context that stitches them back
together: a ``trace_id`` naming the whole itinerary, a ``span_id``
naming the current causal node, the parent's span id, and a hop count.

Two carriers, one context:

* **In-simulation**, the context rides the :class:`~repro.firewall.
  message.Message` envelope (the ``trace`` field), exactly like ``hops``
  and ``priority`` already do.  Envelope metadata costs zero wire bytes,
  which is what keeps the disabled-telemetry run *byte-identical* to the
  enabled one (``TestNoOpOverhead``) — the clock advances by encoded
  briefcase size, so a folder that only exists when telemetry is on
  would change virtual time.
* **On the raw wire** (``Firewall.receive_wire``, i.e. bytes arriving
  from outside the simulated world), the context travels in the reserved
  system folder :data:`~repro.core.wellknown.TRACE_CONTEXT` as a single
  traceparent-style header line.  :func:`inject` writes it before
  encoding; the receiving firewall's decoder splits it off
  (``codec.decode_arrival``) and :meth:`TraceContext.from_header` reads
  it onto the envelope, so the folder never survives past the trust
  boundary.

Identifiers are allocated from a deterministic per-:class:`~repro.obs.
telemetry.Telemetry` counter (never wall-clock or entropy): kernel
event order is deterministic, so two identical runs mint identical ids
and every exported artifact diffs byte-for-byte, under every
``scripts/perturb.py`` perturbation too.
"""

from __future__ import annotations

import itertools
from typing import Dict, NamedTuple, Optional

from repro.core import wellknown

#: Version nibble of the header line (mirrors W3C traceparent "00-").
HEADER_VERSION = "00"


class TraceContext(NamedTuple):
    """One causal node of an itinerary: (trace, span, parent, hop).

    Immutable, compared and hashed field by field.  A tuple, so that
    :meth:`TraceIdAllocator.child` builds one without running Python
    code (``tuple.__new__``).
    """

    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None
    hop: int = 0

    def to_header(self) -> str:
        """Render as a traceparent-style line:
        ``00-<trace_id>-<span_id>-<parent|->-<hop hex>``."""
        parent = self.parent_span_id or "-"
        return (f"{HEADER_VERSION}-{self.trace_id}-{self.span_id}-"
                f"{parent}-{self.hop:02x}")

    @classmethod
    def from_header(cls, header: str) -> Optional["TraceContext"]:
        """Parse :meth:`to_header` output; None on any malformation
        (a hostile wire peer must not be able to crash the firewall)."""
        parts = header.strip().split("-")
        if len(parts) == 6 and parts[3] == "" and parts[4] == "":
            # The "-" no-parent sentinel splits into two empty fields.
            parts = [parts[0], parts[1], parts[2], "-", parts[5]]
        if len(parts) != 5 or parts[0] != HEADER_VERSION:
            return None
        version, trace_id, span_id, parent, hop_hex = parts
        if not trace_id or not span_id:
            return None
        try:
            hop = int(hop_hex, 16)
        except ValueError:
            return None
        return cls(trace_id=trace_id, span_id=span_id,
                   parent_span_id=parent if parent != "-" else None,
                   hop=hop)


_new_context = tuple.__new__


class TraceIdAllocator:
    """Deterministic id mint shared by one Telemetry instance."""

    def __init__(self) -> None:
        self._traces = itertools.count(1)
        self._spans = itertools.count(1)

    def new_trace_id(self) -> str:
        return f"t{next(self._traces):08x}"

    def new_span_id(self) -> str:
        return f"s{next(self._spans):08x}"

    def root(self) -> TraceContext:
        """A fresh root context (hop 0, no parent)."""
        return TraceContext(trace_id=self.new_trace_id(),
                            span_id=self.new_span_id())

    def child(self, parent: TraceContext,
              advance_hop: bool = False) -> TraceContext:
        """A child node of ``parent``: fresh span id, linked parentage.
        ``advance_hop`` marks a host boundary (go/spawn/launch).

        One frame per mint: the span id (:meth:`new_span_id`) and the
        context are built here."""
        return _new_context(TraceContext, (
            parent.trace_id, f"s{next(self._spans):08x}", parent.span_id,
            parent.hop + 1 if advance_hop else parent.hop))


# -- briefcase (raw wire) carrier ------------------------------------------


def inject(briefcase, context: Optional[TraceContext]) -> None:
    """Write ``context`` into the reserved system folder (pre-encode)."""
    if context is None:
        return
    briefcase.drop(wellknown.TRACE_CONTEXT)
    briefcase.put(wellknown.TRACE_CONTEXT, context.to_header())


# -- span annotation helpers -----------------------------------------------


def span_args(context: Optional[TraceContext]) -> Dict[str, object]:
    """Span args for a span that *is* the context's causal node."""
    if context is None:
        return {}
    args: Dict[str, object] = {"trace_id": context.trace_id,
                               "span_id": context.span_id,
                               "hop": context.hop}
    if context.parent_span_id is not None:
        args["parent_span_id"] = context.parent_span_id
    return args


def link_args(context: Optional[TraceContext]) -> Dict[str, object]:
    """Span args for an observation *about* the context's node (queue
    waits, retries, rejections): child-linked, no identity of its own."""
    if context is None:
        return {}
    return {"trace_id": context.trace_id,
            "parent_span_id": context.span_id}
