"""The initial rule pack: this codebase's real invariants, mechanised.

Every headline guarantee of the reproduction — byte-identical chaos /
overload / trace / perf documents across CI runs — holds only while the
code never consults wall-clock time, unseeded randomness, process
environment, or iteration orders that vary between interpreter runs,
and while every scheduling decision flows through the deterministic
kernel (:mod:`repro.sim.eventloop`).  These rules check those invariants
structurally instead of leaving them to reviewer vigilance.

Rule ids are stable API (they appear in suppression comments, baselines,
CI artifacts, and docs):

========  ==========================================================
DET001    wall-clock reads (``time.time``, ``datetime.now``, ...)
DET002    unseeded randomness outside ``repro.sim.rng``
DET003    environment reads in deterministic code (sim/core)
DET004    iteration over bare set displays/constructors
DET005    process-dependent values: ``id(...)`` ordering/membership,
          builtin ``hash(...)`` outside ``__hash__``
DET006    ``dict.popitem`` (order-dependent and destructive)
DUR001    journaled firewall/landing state mutated around the journal
ERR001    broad ``except`` that swallows the exception object
KER001    scheduling primitives bypassing the simulation kernel
MUT001    mutable default argument values
MUT002    event/message subclasses without ``__slots__``
OBS001    telemetry backends constructed outside the facade
OBS002    module-global telemetry state (leaks across in-process runs)
========  ==========================================================

See ``docs/static-analysis.md`` for the catalogue with rationale and
the suppression / baseline workflow.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.engine import LintContext, Rule, register
from repro.analysis.findings import Finding

#: Call targets that read the wall clock.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: ``random`` module-level helpers (the shared, reseedable global
#: stream).  ``random.Random(seed)`` with an explicit seed is fine and
#: is what ``repro.sim.rng`` builds on.
_RANDOM_PREFIXES = ("random.", "numpy.random.", "secrets.")

#: Modules allowed to touch randomness primitives directly.
RNG_SANCTUARY = ("repro.sim.rng",)

#: Module prefixes that must stay environment-independent.
ENV_SCOPES = ("repro.core", "repro.sim")

#: The only module allowed to schedule via heapq/sched/threading timers.
KERNEL_MODULES = ("repro.sim.eventloop",)

#: Base-class names whose subclasses ride the kernel/firewall hot paths
#: and must declare ``__slots__`` (the event and message hierarchies).
SLOTTED_BASES = frozenset({
    "Event", "Timeout", "AnyOf", "AllOf", "Process", "Message",
})
#: Fully qualified forms, for ``eventloop.Event``-style bases.
SLOTTED_BASE_MODULES = ("repro.sim.eventloop.", "repro.firewall.message.")


def _call_target(ctx: LintContext, node: ast.Call) -> Optional[str]:
    return ctx.qualified_name(node.func)


@register
class WallClockRule(Rule):
    id = "DET001"
    severity = "error"
    description = ("Wall-clock read: virtual time must come from the "
                   "kernel clock, never the host clock")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(ctx, node)
            if target in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"{target}() reads the wall clock; deterministic "
                    f"code must use the kernel's virtual clock "
                    f"(kernel.now / ctx.now)")


@register
class UnseededRandomRule(Rule):
    id = "DET002"
    severity = "error"
    description = ("Unseeded/global randomness outside repro.sim.rng "
                   "breaks replayability")

    def applies_to(self, module: str) -> bool:
        return module not in RNG_SANCTUARY

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(ctx, node)
            if target is None:
                continue
            if target == "os.urandom" or target == "uuid.uuid4":
                yield self.finding(
                    ctx, node,
                    f"{target}() is entropy the simulation cannot "
                    f"replay; derive values from a seeded "
                    f"repro.sim.rng.RandomStream")
            elif target == "random.Random" and not node.args:
                yield self.finding(
                    ctx, node,
                    "random.Random() without a seed draws from OS "
                    "entropy; pass an explicit seed")
            elif target.startswith(_RANDOM_PREFIXES) and \
                    target != "random.Random":
                yield self.finding(
                    ctx, node,
                    f"{target}() uses a global/unseeded stream; route "
                    f"randomness through repro.sim.rng outside the "
                    f"sanctuary module")


@register
class EnvReadRule(Rule):
    id = "DET003"
    severity = "error"
    description = ("Environment reads in sim/core make runs depend on "
                   "the invoking shell")

    def applies_to(self, module: str) -> bool:
        return module.startswith(ENV_SCOPES)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.Call):
                target = _call_target(ctx, node)
                if target == "os.getenv":
                    yield self.finding(
                        ctx, node,
                        "os.getenv() read in deterministic code; "
                        "thread configuration through explicit "
                        "parameters instead")
            elif isinstance(node, ast.Attribute) and node.attr == "environ":
                target = ctx.qualified_name(node)
                if target == "os.environ":
                    yield self.finding(
                        ctx, node,
                        "os.environ access in deterministic code; "
                        "thread configuration through explicit "
                        "parameters instead")


def _iteration_targets(node: ast.AST) -> Iterator[ast.AST]:
    """The expressions a statement iterates over."""
    if isinstance(node, ast.For):
        yield node.iter
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)):
        for generator in node.generators:
            yield generator.iter


@register
class SetIterationRule(Rule):
    id = "DET004"
    severity = "warning"
    description = ("Iterating a set iterates in hash order, which can "
                   "differ between interpreter runs")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            for target in _iteration_targets(node):
                if isinstance(target, (ast.Set, ast.SetComp)):
                    yield self.finding(
                        ctx, target,
                        "iteration over a set literal/comprehension is "
                        "hash-ordered; iterate a tuple/list or wrap in "
                        "sorted(...)")
                elif isinstance(target, ast.Call) and \
                        ctx.qualified_name(target.func) in ("set",
                                                            "frozenset"):
                    yield self.finding(
                        ctx, target,
                        "iteration over set(...) is hash-ordered; wrap "
                        "in sorted(...) or keep the original sequence")


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


@register
class KernelBypassRule(Rule):
    id = "KER001"
    severity = "error"
    description = ("Direct heapq/sched/timer scheduling bypasses the "
                   "deterministic kernel in repro.sim.eventloop")

    _BANNED_IMPORTS = frozenset({"heapq", "sched"})

    def applies_to(self, module: str) -> bool:
        return module not in KERNEL_MODULES

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name.split(".", 1)[0] in self._BANNED_IMPORTS:
                        yield self.finding(
                            ctx, node,
                            f"import {item.name}: event scheduling "
                            f"belongs in repro.sim.eventloop; yield "
                            f"kernel events instead of keeping a "
                            f"private heap")
            elif isinstance(node, ast.ImportFrom):
                if node.module is not None and node.level == 0 and \
                        node.module.split(".", 1)[0] in self._BANNED_IMPORTS:
                    yield self.finding(
                        ctx, node,
                        f"from {node.module} import ...: event "
                        f"scheduling belongs in repro.sim.eventloop")
            elif isinstance(node, ast.Call):
                target = _call_target(ctx, node)
                if target == "threading.Timer":
                    yield self.finding(
                        ctx, node,
                        "threading.Timer schedules on the wall clock "
                        "outside the kernel; use kernel.timeout()")


@register
class MutableDefaultRule(Rule):
    id = "MUT001"
    severity = "error"
    description = ("Mutable default argument values are shared across "
                   "calls (and across migrated agent instances)")

    _MUTABLE_CALLS = frozenset({
        "list", "dict", "set", "bytearray",
        "collections.defaultdict", "collections.deque",
        "collections.OrderedDict", "collections.Counter",
    })

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(ctx, default):
                    yield self.finding(
                        ctx, default,
                        "mutable default value is evaluated once and "
                        "shared by every call; default to None and "
                        "construct inside the body")

    def _is_mutable(self, ctx: LintContext, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            return ctx.qualified_name(node.func) in self._MUTABLE_CALLS
        return False


@register
class MissingSlotsRule(Rule):
    id = "MUT002"
    severity = "warning"
    description = ("Event/message subclasses without __slots__ grow a "
                   "__dict__, bloating the kernel and wire hot paths")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.ClassDef):
                continue
            base_name = self._slotted_base(ctx, node)
            if base_name is None:
                continue
            if any(isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets) for stmt in node.body) or any(
                    isinstance(stmt, ast.AnnAssign) and
                    isinstance(stmt.target, ast.Name) and
                    stmt.target.id == "__slots__" for stmt in node.body):
                continue
            yield self.finding(
                ctx, node,
                f"class {node.name} subclasses {base_name} without "
                f"declaring __slots__; hot-path event/message objects "
                f"must stay dict-free")

    @staticmethod
    def _slotted_base(ctx: LintContext,
                      node: ast.ClassDef) -> Optional[str]:
        for base in node.bases:
            qualified = ctx.qualified_name(base)
            if qualified is None:
                continue
            if qualified in SLOTTED_BASES:
                return qualified
            if qualified.startswith(SLOTTED_BASE_MODULES) and \
                    qualified.rsplit(".", 1)[-1] in SLOTTED_BASES:
                return qualified
        return None


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
            target = _call_target(ctx, node)
            if target in TELEMETRY_BACKENDS:
                short = target.rsplit(".", 1)[-1]
                yield self.finding(
                    ctx, node,
                    f"{short} constructed directly: spans/metrics "
                    f"recorded here never reach exports and ignore "
                    f"enable()/disable(); go through the Telemetry "
                    f"facade (kernel.telemetry)")


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
            target = _call_target(ctx, value)
            if target in TELEMETRY_STATE_TARGETS:
                short = target.rsplit(".", 1)[-1]
                yield self.finding(
                    ctx, stmt,
                    f"module-global {short} accumulates state across "
                    f"every run in the process (cumulative registry "
                    f"leak); construct one per run, or call "
                    f"telemetry.reset() at run start")


def all_rule_ids() -> Tuple[str, ...]:
    from repro.analysis.engine import RULES
    return tuple(rule.id for rule in RULES)
