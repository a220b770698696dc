"""The sanctioned inject/strip pair (mirrors the real propagation
module's shape): ``TraceContext.from_header`` reads the stripped folder
back and is a strip root, so writes in this module — including
``inject`` — are part of the wire protocol, not a leak.
"""

TRACE_CONTEXT = "TRACE-CONTEXT"


class TraceContext:
    @classmethod
    def from_header(cls, header):
        parts = header.split("-")
        return parts if len(parts) == 5 else None


def inject(briefcase, header):  # ok: same module as the strip site
    briefcase.drop(TRACE_CONTEXT)
    briefcase.put("TRACE-CONTEXT", header)
