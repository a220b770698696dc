"""DET003 (transitive): deterministic code reaching an env read.

The env read itself lives in ``repro.util``, outside DET003's scope;
the whole-program pass reports the innermost *in-scope* function whose
call chain reaches it.
"""

from repro.util import envsrc


def resolve_region(explicit):
    if explicit is not None:
        return explicit
    # finding: DET003 (transitive) — reaches os.getenv two hops down
    return envsrc.deep_default_region()


def build_config(explicit_region=None):  # covered: lands on resolve_region
    return {"region": resolve_region(explicit_region)}
