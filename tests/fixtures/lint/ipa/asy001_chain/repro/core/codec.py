"""ASY001 (transitive): transport-clean code reaching a blocking call.

The blocking call itself lives in ``repro.util``, outside ASY001's
scope; the whole-program pass reports the innermost *in-scope* function
whose call chain reaches it.
"""

from repro.util import waits


def resolve_pause(explicit):
    if explicit is not None:
        return explicit
    # finding: ASY001 (transitive) — reaches time.sleep two hops down
    return waits.deep_pause()


def build_frame(explicit_pause=None):  # covered: lands on resolve_pause
    return {"pause": resolve_pause(explicit_pause)}
