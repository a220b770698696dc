"""The per-file rule pack: this codebase's real invariants, mechanised.

Every headline guarantee of the reproduction — byte-identical chaos /
overload / trace / perf documents across CI runs — holds only while
nothing orders by allocation address or pops by insertion order, and
while every scheduling decision flows through the deterministic kernel
(:mod:`repro.sim.eventloop`).  These rules check the invariants no run
can show structurally; a wall-clock read, unseeded randomness, an
environment read or a hash-ordered set moves the bytes of a perturbed
rerun, and ``scripts/perturb.py`` gates on that instead.

Rule ids are stable API (they appear in suppression comments, CI
artifacts, and docs).  The rules that follow an effect through calls
— scheduling, blocking I/O, untyped raises — are whole-program rules in
:mod:`repro.analysis.iprules`; every other id is a property of one line
and lives here:

========  ==========================================================
DET005    process-dependent values: ``id(...)`` ordering/membership,
          builtin ``hash(...)`` outside ``__hash__``
DET006    ``dict.popitem`` (order-dependent and destructive)
DUR001    journaled firewall/landing state mutated around the journal
ERR001    broad ``except`` that swallows the exception object
OBS001    telemetry backends constructed outside the facade
OBS002    module-global telemetry state (leaks across in-process runs)
========  ==========================================================

See ``docs/static-analysis.md`` for the catalogue with rationale and
the inline-suppression workflow.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import LintContext, Rule, register
from repro.analysis.findings import Finding


@register
class IdentityOrderRule(Rule):
    id = "DET005"
    severity = "warning"
    description = ("id()-keyed ordering/membership depends on the "
                   "allocator and risks id reuse after GC; builtin "
                   "hash() of text is randomised per process")

    _COLLECTION_METHODS = frozenset({"add", "discard", "remove", "append"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        #: Defining ``__hash__`` is the one place hash() belongs.
        in_dunder_hash = {
            inner for node in ctx.walk()
            if isinstance(node, ast.FunctionDef) and node.name == "__hash__"
            for inner in ast.walk(node)}
        for node in ctx.walk():
            if isinstance(node, ast.Call) and \
                    ctx.qualified_name(node.func) == "hash" and \
                    node not in in_dunder_hash:
                yield self.finding(
                    ctx, node,
                    "builtin hash() of str/bytes changes with "
                    "PYTHONHASHSEED, so a seed, key or order taken from "
                    "it differs between processes; derive it with "
                    "repro.sim.rng.derive_seed or hashlib")
                continue
            if isinstance(node, ast.keyword) and node.arg == "key" and \
                    isinstance(node.value, ast.Name) and \
                    ctx.qualified_name(node.value) == "id":
                yield self.finding(
                    ctx, node.value,
                    "sorting/selecting by key=id orders by allocation "
                    "address; key on stable data instead")
                continue
            if not (isinstance(node, ast.Call) and
                    ctx.qualified_name(node.func) == "id" and
                    len(node.args) == 1):
                continue
            parent = ctx.parent(node)
            if isinstance(parent, ast.Compare) and any(
                    isinstance(op, (ast.In, ast.NotIn))
                    for op in parent.ops):
                yield self.finding(
                    ctx, node,
                    "membership keyed on id(): ids can be reused after "
                    "garbage collection; hold object references (or "
                    "pin them) and document why identity is intended")
            elif isinstance(parent, ast.Call) and \
                    isinstance(parent.func, ast.Attribute) and \
                    parent.func.attr in self._COLLECTION_METHODS:
                yield self.finding(
                    ctx, node,
                    f"collection .{parent.func.attr}(id(...)) keys on "
                    f"allocation addresses; ids can be reused after "
                    f"garbage collection — pin references and document "
                    f"intent")
            elif isinstance(parent, ast.Subscript):
                yield self.finding(
                    ctx, node,
                    "indexing by id() keys on allocation addresses; "
                    "ids can be reused after garbage collection")


@register
class PopitemRule(Rule):
    id = "DET006"
    severity = "error"
    description = ("dict.popitem() removes an order-dependent entry; "
                   "pop an explicit key instead")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "popitem":
                yield self.finding(
                    ctx, node,
                    ".popitem() couples behaviour to insertion order "
                    "and mutates during iteration patterns; pop an "
                    "explicit key")


#: The one module allowed to bind journaled structures: the module that
#: owns them, whose ``install_delivery_state`` helper is the only
#: (construction-time) binding site.  Replay restores *into* the bound
#: objects, so nothing else ever rebinds.
DURABILITY_SANCTUARY = ("repro.firewall.dedup",)

#: Firewall attributes whose state is write-ahead journaled
#: (:mod:`repro.durability`).  Every mutation must flow through their
#: own methods so the change is announced; rebinding the object (the
#: new one has no subscribers) or poking its private fields silently
#: desynchronises the journal from the live state, and the next replay
#: resurrects the past.
JOURNALED_ATTRS = frozenset({"dedup", "landings"})


@register
class JournalBypassRule(Rule):
    id = "DUR001"
    severity = "error"
    description = ("Direct mutation of journaled firewall/landing state "
                   "outside the journal API desynchronises the "
                   "write-ahead journal from the live objects")

    def applies_to(self, module: str) -> bool:
        return module not in DURABILITY_SANCTUARY

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if isinstance(node, (ast.Assign, ast.AugAssign,
                                 ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and \
                            target.attr in JOURNALED_ATTRS:
                        yield self.finding(
                            ctx, target,
                            f"rebinding .{target.attr} replaces a "
                            f"journaled structure with one nobody "
                            f"subscribed to; restore into it "
                            f"(restore_durable) or mutate via the "
                            f"object's own methods")
            elif isinstance(node, ast.Attribute) and \
                    node.attr.startswith("_") and \
                    isinstance(node.value, ast.Attribute) and \
                    node.value.attr in JOURNALED_ATTRS:
                yield self.finding(
                    ctx, node,
                    f".{node.value.attr}.{node.attr} reaches into a "
                    f"journaled structure's private state; mutations "
                    f"there never hit the write-ahead journal — use "
                    f"the public (journaling) API")


def _is_broad_handler(ctx: LintContext,
                      handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    for entry in types:
        if ctx.qualified_name(entry) in ("Exception", "BaseException"):
            return True
    return False


@register
class BroadExceptRule(Rule):
    id = "ERR001"
    severity = "error"
    description = ("Broad except that neither re-raises nor uses the "
                   "exception can swallow transient errors meant for "
                   "RetryPolicy")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad_handler(ctx, node):
                continue
            if self._handler_routes_exception(node):
                continue
            yield self.finding(
                ctx, node,
                "broad except swallows the exception: transient errors "
                "(is_transient) never reach RetryPolicy; re-raise, "
                "narrow the type, or route the exception object "
                "somewhere")

    @staticmethod
    def _handler_routes_exception(handler: ast.ExceptHandler) -> bool:
        """True when the handler re-raises or touches the caught object."""
        bound = handler.name
        for node in ast.walk(ast.Module(body=handler.body,
                                        type_ignores=[])):
            if isinstance(node, ast.Raise):
                return True
            if bound is not None and isinstance(node, ast.Name) and \
                    node.id == bound and isinstance(node.ctx, ast.Load):
                return True
        return False


#: The only module allowed to construct telemetry backends directly —
#: the :class:`~repro.obs.telemetry.Telemetry` facade, which keeps the
#: registry, tracer, flight recorder and id allocator enabled/disabled
#: in lockstep.
TELEMETRY_FACADE_MODULES = ("repro.obs.telemetry",)

#: Construction targets that must flow through the facade, in every
#: import spelling the resolver can produce.
TELEMETRY_BACKENDS = frozenset({
    "MetricsRegistry",
    "repro.obs.MetricsRegistry",
    "repro.obs.metrics.MetricsRegistry",
    "Tracer",
    "repro.obs.Tracer",
    "repro.obs.tracing.Tracer",
})


@register
class TelemetryFacadeRule(Rule):
    id = "OBS001"
    severity = "warning"
    description = ("MetricsRegistry/Tracer constructed outside the "
                   "Telemetry facade drifts out of the enable/disable "
                   "lifecycle")

    def applies_to(self, module: str) -> bool:
        return module not in TELEMETRY_FACADE_MODULES

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            target = ctx.qualified_name(node.func)
            if target in TELEMETRY_BACKENDS:
                short = target.rsplit(".", 1)[-1]
                yield self.finding(
                    ctx, node,
                    f"{short} constructed directly: spans/metrics "
                    f"recorded here never reach exports and ignore "
                    f"the world's telemetry flag; go through the "
                    f"Telemetry facade (kernel.telemetry)")


#: Constructors whose instances accumulate run state (peak-watermark
#: gauges, counter totals, span lists, flight-recorder rings).  Bound at
#: module scope they outlive every run in the process.
TELEMETRY_STATE_TARGETS = frozenset({
    "Telemetry",
    "repro.obs.Telemetry",
    "repro.obs.telemetry.Telemetry",
    "FlightRecorder",
    "repro.obs.FlightRecorder",
    "repro.obs.flightrec.FlightRecorder",
}) | TELEMETRY_BACKENDS


@register
class ModuleGlobalTelemetryRule(Rule):
    id = "OBS002"
    severity = "error"
    description = ("Telemetry state bound at module scope survives "
                   "across in-process runs: later runs report earlier "
                   "runs' peaks and totals")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value = stmt.value
            else:
                continue
            if not isinstance(value, ast.Call):
                continue
            target = ctx.qualified_name(value.func)
            if target in TELEMETRY_STATE_TARGETS:
                short = target.rsplit(".", 1)[-1]
                yield self.finding(
                    ctx, stmt,
                    f"module-global {short} accumulates state across "
                    f"every run in the process (cumulative registry "
                    f"leak); construct one per run")

