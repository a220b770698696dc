"""The sanctioned inject/strip pair (mirrors the real propagation
module's shape): ``TraceContext.from_header`` reads the stripped folder
back and is a strip root, and ``inject`` is its named writer, so its
write is part of the wire protocol.  Sharing the module sanctions no
other writer: ``leak`` is flagged.
"""

TRACE_CONTEXT = "TRACE-CONTEXT"


class TraceContext:
    @classmethod
    def from_header(cls, header):
        parts = header.split("-")
        return parts if len(parts) == 5 else None


def inject(briefcase, header):  # ok: a named writer of the strip pair
    briefcase.drop(TRACE_CONTEXT)
    briefcase.put("TRACE-CONTEXT", header)


def leak(briefcase, header):
    # finding: WIRE001 — a second writer, sanctioned by nothing
    briefcase.put("TRACE-CONTEXT", header)
