"""The briefcase-aliasing sanitizer: the rule pack's dynamic companion.

``scripts/perturb.py`` shows that a run *reads* no nondeterministic
input (its output does not move on a rerun, nor when the hash seed, the
environment or the collector changes); this module watches a live run
for the state-sharing hazard the mobile-agent literature singles out:
two agents observing the same mutable
:class:`~repro.core.folder.Folder` object.  The briefcase contract says
everything that crosses an agent boundary is a snapshot (``send`` and
``go``/``spawn`` snapshot, the codec materialises fresh folders), so any
folder *owned* by the briefcases of two live agents means a copy was
skipped somewhere — exactly the cross-host state-capture bug class that
is invisible to unit tests until a second agent mutates shared state.
(A copy-on-write snapshot shares its lender's folders without owning
them; it copies them before any write, so they are not observed.)

Mechanism: the sanitizer rides the folder/briefcase *version counters*
introduced for the wire-encoding cache.  Agent contexts present their
briefcases at well-defined taps (context creation, ``send``, ``recv``,
``go``/``spawn``); the sanitizer records each folder object (pinned with
a strong reference, so CPython cannot recycle its ``id`` mid-run) with
its owning agent, last seen version, and the virtual instant of the last
observed mutation.  Two live owners for one folder raise **SAN001**
(briefcase aliasing); version bumps attributed to different agents at
the same virtual instant raise **SAN002** (conflicting same-instant
writes).  Findings reuse :class:`repro.analysis.findings.Finding` with a
``runtime:<scenario>`` path, so ``repro lint --sanitize`` merges them
into the same JSON/SARIF document as the static findings.

Installation: :func:`sanitizing` (a context manager) installs a
sanitizer as the *ambient* sanitizer picked up by every
:class:`~repro.sim.eventloop.Kernel` constructed inside the ``with``
block; the taps cost one attribute check per operation when no sanitizer
is installed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, sort_findings

RULE_ALIASING = "SAN001"
RULE_CONFLICT = "SAN002"

#: severity/description table, mirrored into SARIF output.
SANITIZER_RULES: Dict[str, Tuple[str, str]] = {
    RULE_ALIASING: (
        "error",
        "Two live agents observe the same mutable Folder object "
        "(briefcase aliasing: a snapshot was skipped)"),
    RULE_CONFLICT: (
        "error",
        "Two agents wrote the same Folder at the same virtual instant "
        "(conflicting same-instant writes)"),
}


def _context_label(ctx: Any) -> str:
    """A stable, human-readable owner label for an agent context."""
    registration = getattr(ctx, "registration", None)
    if registration is not None:
        name = getattr(registration, "name", None)
        instance = getattr(registration, "instance", None)
        if name is not None and instance is not None:
            return f"{ctx.principal}/{name}:{instance}"
    return f"{ctx.principal}/{ctx.vm_name}(unregistered)"


def _context_live(ctx: Any) -> bool:
    return not (getattr(ctx, "finished", False) or
                getattr(ctx, "moved", False))


class _FolderRecord:
    """Tracking state for one observed folder object."""

    __slots__ = ("folder", "owner", "version", "write_instant", "writer")

    def __init__(self, folder: Any, owner: Any, version: int,
                 instant: float):
        #: Strong reference: keeping the folder alive guarantees its
        #: ``id`` is never reused while this record exists.
        self.folder = folder
        self.owner = owner
        self.version = version
        self.write_instant = instant
        self.writer = owner


class AliasingSanitizer:
    """Observes briefcases at runtime taps and accumulates findings."""

    def __init__(self, scenario: str = "run"):
        self.scenario = scenario
        self.findings: List[Finding] = []
        self.observations = 0
        self._records: Dict[int, _FolderRecord] = {}
        self._reported: Set[Tuple[str, str, str, str]] = set()

    # -- tap entry points (called from repro.agent.context) -----------------

    def observe_briefcase(self, ctx: Any, briefcase: Any,
                          op: str = "") -> None:
        """``ctx`` is currently holding ``briefcase``: check every folder."""
        folders = getattr(briefcase, "_folders", None)
        if folders is None:
            return
        now = float(ctx.kernel.now)
        lender = briefcase._lender
        for folder in tuple(folders.values()):
            # A copy-on-write snapshot still shares its lender's folders
            # but cannot write them (it takes copies first), so a
            # borrowed folder is not aliased; every other one can be.
            if folder._cell is not lender:
                self._observe_folder(ctx, folder, now, op)

    # -- core bookkeeping ---------------------------------------------------

    def _observe_folder(self, ctx: Any, folder: Any, now: float,
                        op: str) -> None:
        self.observations += 1
        key = id(folder)
        record = self._records.get(key)
        if record is None or record.folder is not folder:
            self._records[key] = _FolderRecord(
                folder, ctx, folder._version, now)
            return
        if folder._version != record.version:
            # A mutation happened since the folder was last presented;
            # attribute it to the agent presenting the folder now.
            if record.write_instant == now and record.writer is not ctx:
                self._report(
                    RULE_CONFLICT, folder,
                    f"folder {folder.name!r} written by "
                    f"{_context_label(record.writer)} and "
                    f"{_context_label(ctx)} at the same virtual instant "
                    f"t={now:g} (op={op or 'observe'})",
                    record.writer, ctx)
            record.version = folder._version
            record.write_instant = now
            record.writer = ctx
        if record.owner is not ctx:
            if _context_live(record.owner) and _context_live(ctx):
                self._report(
                    RULE_ALIASING, folder,
                    f"folder {folder.name!r} is aliased: live agents "
                    f"{_context_label(record.owner)} and "
                    f"{_context_label(ctx)} hold the same Folder object "
                    f"(op={op or 'observe'}); briefcases crossing agent "
                    f"boundaries must be snapshots",
                    record.owner, ctx)
            else:
                # Ownership transfer from a finished/moved agent: the
                # normal hand-off pattern (launch, reply consumption).
                record.owner = ctx
                record.writer = ctx

    def _report(self, rule: str, folder: Any, message: str,
                first: Any, second: Any) -> None:
        labels = tuple(sorted((_context_label(first),
                               _context_label(second))))
        dedup = (rule, folder.name, labels[0], labels[1])
        if dedup in self._reported:
            return
        self._reported.add(dedup)
        severity, _description = SANITIZER_RULES[rule]
        self.findings.append(Finding(
            rule=rule, severity=severity,
            path=f"runtime:{self.scenario}", line=0, col=0,
            message=message,
            snippet=f"folder={folder.name} agents={labels[0]}|{labels[1]}"))

    # -- results ------------------------------------------------------------

    def sorted_findings(self) -> List[Finding]:
        return sort_findings(self.findings)

    @property
    def clean(self) -> bool:
        return not self.findings


@contextmanager
def sanitizing(scenario: str = "run",
               sanitizer: Optional[AliasingSanitizer] = None
               ) -> Iterator[AliasingSanitizer]:
    """Install an ambient sanitizer for kernels built in this block."""
    from repro.sim.eventloop import set_ambient_sanitizer
    active = sanitizer if sanitizer is not None \
        else AliasingSanitizer(scenario=scenario)
    previous = set_ambient_sanitizer(active)
    try:
        yield active
    finally:
        set_ambient_sanitizer(previous)


# -- scenario harness (repro lint --sanitize) -------------------------------


def run_sanitized_scenarios() -> List[Finding]:
    """Run the reference scenarios under the sanitizer; returns findings.

    Scenarios are the deterministic flows CI already pins byte-for-byte:
    the traced quickstart itinerary, the chaos mid-crash recovery run,
    and experiment E1.  A clean tree returns an empty list; any finding
    here is a real briefcase-sharing bug somewhere in the runtime.
    """
    findings: List[Finding] = []

    with sanitizing("quickstart") as sanitizer:
        from repro.obs.demo import run_traced_quickstart
        run_traced_quickstart()
    findings.extend(sanitizer.sorted_findings())

    with sanitizing("chaos-mid-crash") as sanitizer:
        from repro.chaos.scenario import run_chaos
        run_chaos(seed=7, plan="mid-crash", recovery=True)
    findings.extend(sanitizer.sorted_findings())

    with sanitizing("experiment-e1") as sanitizer:
        from repro.bench.experiments import run_e1
        run_e1(seed=2000)
    findings.extend(sanitizer.sorted_findings())

    return findings
