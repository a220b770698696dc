"""Itinerary reports: causal traces + SLO summaries as one document.

``repro report`` is the human-facing end of the propagation layer: it
groups the tracer's spans by ``trace_id`` into per-agent itineraries
(which host, when, with what outcome, parent-linked hop by hop), joins
the SLO histograms (hop latency, queue wait, launch time, admission
sizes) as p50/p95/p99 summaries, and renders the result two ways:

- **canonical JSON** (:func:`render_report_json`) — ``sort_keys`` +
  fixed rounding, a pure function of the run, so two identical runs
  diff byte-for-byte (CI asserts this);
- **self-contained HTML** (:func:`render_report_html`) — inline CSS,
  no external resources: a timeline of residencies and hops per trace
  plus the SLO table, openable from a CI artifact without a server.

The builder reads only a :class:`~repro.obs.telemetry.Telemetry`
object; composing it with a workload (the traced quickstart for the
CLI) happens in :mod:`repro.cli`.
"""

from __future__ import annotations

import html
import json
from typing import Dict, List, Optional

from repro.core.fold import fold_sum
from repro.obs.metrics import summarize_sample
from repro.obs.telemetry import Telemetry

SCHEMA = "repro.report/1"

#: Histogram families summarised in the SLO section (when present).
SLO_FAMILIES = (
    "agent.hop_seconds",
    "fw.queue_wait_seconds",
    "fw.admission_bytes",
    "vm.launch_seconds",
    "net.transfer_seconds",
)

#: Counter families totalled in the overview section (when present).
OVERVIEW_COUNTERS = (
    "agent.hops",
    "agent.migration_failures",
    "faults.injected",
    "fw.dead_letters",
    "fw.delivered",
    "fw.queue_rejected",
    "host.crashes",
    "net.messages",
    "transport.retries",
)

#: Span names that constitute an itinerary (residencies and hops).
_RESIDENCY_PREFIX = "run:"
_HOP_NAMES = ("go", "spawn")


def _r(value: Optional[float]) -> Optional[float]:
    """Fixed rounding so float repr noise never breaks byte-diffs."""
    return None if value is None else round(value, 9)


def _span_row(span) -> dict:
    row = {
        "name": span.name,
        "track": span.track,
        "start": _r(span.start),
        "end": _r(span.end_time),
        "duration": _r(span.duration),
        "outcome": span.args.get("outcome"),
        "span_id": span.args.get("span_id"),
        "parent_span_id": span.args.get("parent_span_id"),
        "hop": span.args.get("hop"),
    }
    if span.name.startswith(_RESIDENCY_PREFIX):
        row["kind"] = "residency"
        row["agent"] = span.args.get("agent")
        row["host"] = span.track.split(":", 1)[-1]
    else:
        row["kind"] = "hop"
        row["agent"] = span.args.get("agent")
        row["src"] = span.args.get("src")
        row["dst_host"] = span.args.get("dst_host")
    return row


def build_report(telemetry: Telemetry, meta: Optional[dict] = None) -> dict:
    """The deterministic report document for one finished run."""
    traces: Dict[str, List[dict]] = {}
    for span in telemetry.tracer._sorted_spans():
        trace_id = span.args.get("trace_id")
        if trace_id is None:
            continue
        if not (span.name.startswith(_RESIDENCY_PREFIX)
                or span.name in _HOP_NAMES):
            continue
        traces.setdefault(trace_id, []).append(_span_row(span))

    trace_docs = []
    for trace_id in sorted(traces):
        rows = traces[trace_id]
        residencies = [r for r in rows if r["kind"] == "residency"]
        hosts = sorted({r["host"] for r in residencies})
        agents = sorted({r["agent"] for r in rows if r.get("agent")})
        trace_docs.append({
            "trace_id": trace_id,
            "agents": agents,
            "hosts": hosts,
            "n_hops": sum(1 for r in rows
                          if r["kind"] == "hop" and r["outcome"] == "ok"),
            "itinerary": rows,
        })

    slo: Dict[str, list] = {}
    for family_name in SLO_FAMILIES:
        family = telemetry.metrics.get(family_name)
        if family is None:
            continue
        entries = []
        for sample in family.samples():
            summary = summarize_sample(sample["value"])
            entries.append({
                "labels": sample["labels"],
                "count": summary["count"],
                "sum": _r(summary["sum"]),
                "min": _r(summary["min"]),
                "max": _r(summary["max"]),
                "p50": _r(summary["p50"]),
                "p95": _r(summary["p95"]),
                "p99": _r(summary["p99"]),
            })
        if entries:
            slo[family_name] = entries

    overview: Dict[str, float] = {}
    for counter_name in OVERVIEW_COUNTERS:
        family = telemetry.metrics.get(counter_name)
        if family is None:
            continue
        overview[counter_name] = fold_sum(
            sample["value"] for sample in family.samples())

    document = {
        "schema": SCHEMA,
        "meta": dict(sorted((meta or {}).items())),
        "traces": trace_docs,
        "slo": slo,
        "overview": overview,
        "flight_recorder": {
            "hosts": telemetry.flight.hosts(),
            "dumps": list(telemetry.flight.dumps),
        },
    }
    return document


def render_report_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2)


# -- self-contained HTML ----------------------------------------------------

_CSS = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2em; background: #fafafa; color: #222; }
h1, h2 { font-weight: 600; }
.trace { border: 1px solid #ccc; background: #fff; border-radius: 6px;
         padding: 1em; margin-bottom: 1.5em; }
.lane { position: relative; height: 22px; margin: 3px 0; }
.lane .label { position: absolute; left: 0; width: 14em; overflow: hidden;
               text-overflow: ellipsis; white-space: nowrap;
               font-size: 12px; line-height: 22px; }
.lane .rail { position: absolute; left: 15em; right: 0; top: 0;
              bottom: 0; background: #f0f0f0; border-radius: 3px; }
.bar { position: absolute; top: 3px; height: 16px; border-radius: 3px;
       min-width: 2px; }
.bar.residency { background: #4a90d9; }
.bar.hop { background: #e0a030; }
.bar.failed { background: #d05050; }
table { border-collapse: collapse; margin: 1em 0; background: #fff; }
th, td { border: 1px solid #ccc; padding: 4px 10px; font-size: 13px;
         text-align: right; }
th { background: #eee; }
td.l, th.l { text-align: left; }
.meta { color: #666; font-size: 12px; }
"""


def _timeline_html(trace: dict) -> List[str]:
    rows = trace["itinerary"]
    starts = [r["start"] for r in rows if r["start"] is not None]
    ends = [r["end"] for r in rows if r["end"] is not None]
    if not starts or not ends:
        return []
    t0, t1 = min(starts), max(ends)
    width = max(t1 - t0, 1e-9)
    out = []
    for row in rows:
        if row["start"] is None:
            continue
        end = row["end"] if row["end"] is not None else t1
        left = 100.0 * (row["start"] - t0) / width
        bar_w = max(100.0 * (end - row["start"]) / width, 0.3)
        if row["kind"] == "residency":
            label = f"run @ {row['host']}"
            css = "residency"
        else:
            label = f"{row['name']} → {row.get('dst_host') or '?'}"
            css = "hop"
        if row["outcome"] not in ("ok", "done", "moved", None):
            css = "failed"
        title = (f"{row['name']} [{_fmt(row['start'])}s – {_fmt(end)}s] "
                 f"outcome={row['outcome']}")
        out.append(
            f'<div class="lane"><span class="label">'
            f'{html.escape(label)}</span><span class="rail">'
            f'<span class="bar {css}" title="{html.escape(title)}" '
            f'style="left:{left:.3f}%;width:{bar_w:.3f}%"></span>'
            f'</span></div>')
    return out


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_report_html(document: dict) -> str:
    parts = [
        "<!DOCTYPE html>", "<html><head><meta charset='utf-8'>",
        "<title>repro itinerary report</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>Itinerary report</h1>",
        f"<p class='meta'>schema {html.escape(document['schema'])}"
        f" · {len(document['traces'])} trace(s)</p>",
    ]
    for trace in document["traces"]:
        parts.append("<div class='trace'>")
        parts.append(
            f"<h2>trace {html.escape(trace['trace_id'])}</h2>"
            f"<p class='meta'>agents: "
            f"{html.escape(', '.join(trace['agents']) or '-')} · hosts: "
            f"{html.escape(', '.join(trace['hosts']) or '-')} · "
            f"{trace['n_hops']} hop(s)</p>")
        parts.extend(_timeline_html(trace))
        parts.append("</div>")
    if document["slo"]:
        parts.append("<h2>SLO summaries</h2>")
        parts.append("<table><tr><th class='l'>family</th>"
                     "<th class='l'>labels</th><th>count</th><th>p50</th>"
                     "<th>p95</th><th>p99</th><th>max</th></tr>")
        for family in sorted(document["slo"]):
            for entry in document["slo"][family]:
                labels = ", ".join(f"{k}={v}" for k, v
                                   in sorted(entry["labels"].items()))
                parts.append(
                    f"<tr><td class='l'>{html.escape(family)}</td>"
                    f"<td class='l'>{html.escape(labels)}</td>"
                    f"<td>{entry['count']}</td>"
                    f"<td>{_fmt(entry['p50'])}</td>"
                    f"<td>{_fmt(entry['p95'])}</td>"
                    f"<td>{_fmt(entry['p99'])}</td>"
                    f"<td>{_fmt(entry['max'])}</td></tr>")
        parts.append("</table>")
    if document["overview"]:
        parts.append("<h2>Overview counters</h2><table>")
        parts.append("<tr><th class='l'>counter</th><th>total</th></tr>")
        for name in sorted(document["overview"]):
            parts.append(f"<tr><td class='l'>{html.escape(name)}</td>"
                         f"<td>{_fmt(document['overview'][name])}</td>"
                         f"</tr>")
        parts.append("</table>")
    dumps = document["flight_recorder"]["dumps"]
    if dumps:
        parts.append(f"<h2>Flight-recorder dumps ({len(dumps)})</h2>")
        for dump in dumps:
            parts.append(
                f"<p class='meta'>{html.escape(dump['host'])} at "
                f"t={_fmt(dump['at'])}s — {html.escape(dump['reason'])}, "
                f"{len(dump['events'])} event(s)</p>")
    parts.append("<script type='application/json' id='report-data'>")
    parts.append(render_report_json(document))
    parts.append("</script></body></html>")
    return "\n".join(parts) + "\n"
