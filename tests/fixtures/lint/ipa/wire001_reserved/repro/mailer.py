"""WIRE001: a reserved wire-only folder written off the wire path.

``stamp_trace`` writes ``TRACE-CONTEXT`` but neither it, its module,
nor anything it calls can reach a ``receive_wire`` strip site — the
folder would survive into agent-visible briefcases and corrupt the
dedup/tracing protocol on the next hop.
"""


def stamp_trace(briefcase, header):
    # finding: WIRE001 — no path from here to a strip site
    briefcase.put("TRACE-CONTEXT", header)


def send_with_trace(briefcase, header):  # caller context for the witness
    stamp_trace(briefcase, header)
    return briefcase
