"""repro.obs — system-wide telemetry for the TAX runtime.

Seven pieces, all zero-dependency and deterministic:

- :mod:`repro.obs.metrics` — the metrics registry (counters, gauges,
  histograms with labels) plus quantile/summary math;
- :mod:`repro.obs.tracing` — the span tracer (virtual-time intervals,
  JSONL and Chrome ``trace_event`` export with causal flow arrows);
- :mod:`repro.obs.propagation` — the causal trace context that rides
  message envelopes across hops (and the reserved ``TRACE-CONTEXT``
  briefcase folder it travels in on the raw wire);
- :mod:`repro.obs.flightrec` — the per-host flight recorder: a bounded
  ring of recent events frozen into a dump on crash or quarantine;
- :mod:`repro.obs.report` — per-trace itinerary + SLO report documents
  (canonical JSON, self-contained HTML);
- :mod:`repro.obs.openmetrics` — OpenMetrics text rendering of a
  registry snapshot;
- :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade the kernel
  owns and every layer reaches as ``kernel.telemetry``.

See ``docs/observability.md`` for the metric catalog and trace schema.
(:mod:`repro.obs.demo` — the traced quickstart scenario behind ``repro
trace`` — is deliberately *not* exported here: it pulls in the system
layer.)
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".metrics": (
        "Counter Gauge Histogram MetricError MetricsRegistry DEFAULT_BUCKETS "
        "estimate_quantile summarize_sample"),
    ".tracing": "Span Tracer NULL_SPAN",
    ".propagation": "TraceContext TraceIdAllocator",
    ".flightrec": "FlightRecorder",
    ".report": "build_report render_report_html render_report_json",
    ".openmetrics": "render_openmetrics",
    ".telemetry": "Telemetry",
})
