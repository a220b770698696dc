"""The whole-program rule pack: rules over the call graph and effects.

The effect rules follow one effect through the call graph: KER001
(scheduling outside the kernel) and ASY001 (transport-clean code
reaching blocking I/O or virtual time).  ERR003 follows an untyped
raise up to a ``TaxError``-only handler.  ERR002 and WIRE001 are
properties of paths, not of lines.

Reporting policy: an in-scope function reports each of its own origins
of the effect, one finding per origin, worded for what the origin
names (a direct ``threading.Timer()``, an ``import heapq``) or for how it
was laundered (an alias, a ``functools.partial``, a decorator).  A
function whose effect only arrives through calls reports the call when
nothing below it reported — the origin lies outside the rule's scope —
so a chain yields its findings at the innermost in-scope function.
Suppressed lines and sanctuary modules never enter the dataflow at all
(see :mod:`repro.analysis.summaries`), so a justified
``# lint: disable=`` keeps sanctioning the whole chain.

Every finding carries a witness path: caller context down to the
reported function, then the steps to the origin line.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.analysis.callgraph import Project
from repro.analysis.dataflow import Cause, Dataflow
from repro.analysis.findings import Finding, WitnessStep
from repro.analysis.summaries import (
    BLOCKING_IO,
    KERNEL_BYPASS,
    RAISES_PERMANENT,
    RAISES_UNTYPED,
    SIM_COUPLED,
    IntrinsicEffect,
)
from repro.analysis.symbols import FunctionFacts, RetryRegion, TryRegion

#: How many caller-context hops to prepend to a witness chain.
_CALLER_CONTEXT_HOPS = 3

#: Strip sites for the reserved wire-only folders: the arrival decoder
#: that splits ``TRACE-CONTEXT`` / ``DELIVERY-SEQ`` / ``LANDING-ID`` off
#: before a briefcase reaches agent code, and the readers of the split-off
#: texts.
WIRE_STRIP_ROOTS = (
    "repro.core.codec.decode_arrival",
    "repro.firewall.dedup.parse_seq",
    "repro.obs.propagation.TraceContext.from_header",
)

#: The writers paired with those readers: what a sending firewall stamps
#: on the raw wire, the receiving one strips.  Only these may write a
#: reserved folder without a path to a strip site.
WIRE_WRITERS = (
    "repro.firewall.dedup.inject_seq",
    "repro.firewall.dedup.inject_landing",
    "repro.obs.propagation.inject",
)

#: Modules the real-transport roadmap item calls transport-clean: the
#: firewall/codec/TAX data plane that must run unchanged on the asyncio
#: backend.  ASY001 keeps them free of blocking calls and of edges into
#: the virtual-time simulation.
ASY001_SCOPES = (
    "repro.core.briefcase",
    "repro.core.codec",
    "repro.core.element",
    "repro.core.errors",
    "repro.core.folder",
    "repro.core.identity",
    "repro.core.limits",
    "repro.core.retry",
    "repro.core.uri",
    "repro.core.wellknown",
    "repro.firewall.auth",
    "repro.firewall.dedup",
    # The reference monitor itself is the component the backend swap
    # re-hosts; its one residual edge into the simulated network
    # (breaker configuration) is left for the roadmap item.
    "repro.firewall.firewall",
    "repro.firewall.message",
    "repro.firewall.policy",
    "repro.firewall.routing",
)

#: Exception names that catch everything (plus the bare ``except:``
#: sentinel "").
_BROAD_CATCHES = frozenset({"", "Exception", "BaseException"})


class ProjectRule:
    """Base class for whole-program rules."""

    id = "PRJ000"
    severity = "error"
    description = ""

    def check(self, project: Project,
              flow: Dataflow) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover - generator template

    def finding(self, project: Project, qname: str, line: int, col: int,
                message: str, snippet: str,
                witness: Sequence[WitnessStep]) -> Finding:
        function = project.functions[qname]
        return Finding(rule=self.id, severity=self.severity,
                       path=function.path, line=line, col=col,
                       message=message, snippet=snippet,
                       witness=tuple(witness))


#: The default project-rule registry, in registration order.
PROJECT_RULES: List[ProjectRule] = []


def register_project(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    PROJECT_RULES.append(cls())
    return cls


def project_rule_index() -> Dict[str, Tuple[str, str]]:
    """rule id -> (severity, description), for SARIF and docs."""
    return {rule.id: (rule.severity, rule.description)
            for rule in PROJECT_RULES}


def _caller_context(project: Project, qname: str) -> List[WitnessStep]:
    """Up to :data:`_CALLER_CONTEXT_HOPS` callers above ``qname``
    (outermost first), chosen lexicographically for determinism."""
    chain: List[str] = [qname]
    seen = {qname}
    current = qname
    for _ in range(_CALLER_CONTEXT_HOPS):
        callers = [c for c in project.callers.get(current, ())
                   if c not in seen and not c.endswith(".<module>")]
        if not callers:
            break
        parent = callers[0]
        seen.add(parent)
        chain.append(parent)
        current = parent
    steps: List[WitnessStep] = []
    for index in range(len(chain) - 1, 0, -1):
        caller, callee = chain[index], chain[index - 1]
        caller_facts = project.functions[caller]
        line = caller_facts.line
        for edge in project.graph[caller]:
            if edge.kind == "call" and edge.callee == callee:
                line = edge.line
                break
        short = callee.rsplit(".", 1)[-1]
        steps.append(WitnessStep(function=caller, path=caller_facts.path,
                                 line=line, note=f"calls {short}()"))
    return steps


def _chain_steps(flow: Dataflow, qname: str,
                 effect: str) -> List[WitnessStep]:
    return [WitnessStep(function=fn, path=path, line=line, note=note)
            for fn, path, line, note in flow.chain(qname, effect)]


class EffectRule(ProjectRule):
    """Shared machinery for the rules that follow one effect."""

    #: The dataflow effect this rule reports.
    effect = ""

    def in_scope(self, module: str) -> bool:
        return True

    def reached(self, note: str, where: str) -> str:
        """The message for an origin ``note`` (laundered, or reached
        through calls) in function ``where``."""
        raise NotImplementedError

    def direct(self, origin: IntrinsicEffect, where: str) -> str:
        """The message for an origin that names its target directly."""
        return self.reached(origin.note, where)

    def check(self, project: Project,
              flow: Dataflow) -> Iterator[Finding]:
        status: Dict[str, str] = {}
        for qname in sorted(project.functions):
            if self._status(project, flow, qname, status) != "reported":
                continue
            cause = flow.cause(qname, self.effect)
            assert cause is not None
            context = _caller_context(project, qname)
            if cause.kind == "edge":
                root = flow.root(qname, self.effect)
                if root is None:
                    continue
                root_qname, root_cause = root
                yield self.finding(
                    project, qname, cause.line, cause.col,
                    self.reached(root_cause.note,
                                 root_qname.rsplit(".", 1)[-1]),
                    cause.snippet,
                    context + _chain_steps(flow, qname, self.effect))
                continue
            function = project.functions[qname]
            short = qname.rsplit(".", 1)[-1]
            for origin in flow.origins[qname]:
                if origin.effect != self.effect:
                    continue
                message = self.direct(origin, short) if origin.target \
                    else self.reached(origin.note, short)
                step = WitnessStep(function=qname, path=function.path,
                                   line=origin.line, note=origin.note)
                yield self.finding(project, qname, origin.line,
                                   origin.col, message, origin.snippet,
                                   context + [step])

    def _status(self, project: Project, flow: Dataflow, qname: str,
                memo: Dict[str, str]) -> str:
        """``"reported"`` (this function gets the findings),
        ``"covered"`` (untainted, or a function below reported), or
        ``"unscoped"`` (tainted, but nothing in scope reported yet)."""
        cached = memo.get(qname)
        if cached is not None:
            return cached
        memo[qname] = "covered"  # cycle guard: stay quiet on revisits
        cause = flow.cause(qname, self.effect)
        if cause is None or (cause.kind == "edge" and self._status(
                project, flow, cause.callee, memo) != "unscoped"):
            result = "covered"
        elif self.in_scope(project.functions[qname].module):
            result = "reported"
        else:
            result = "unscoped"
        memo[qname] = result
        return result


@register_project
class KernelBypassRule(EffectRule):
    id = "KER001"
    severity = "error"
    description = ("Scheduling primitive outside repro.sim.eventloop "
                   "(heapq, sched, threading.Timer), direct or through "
                   "the call graph, bypasses the deterministic kernel")
    effect = KERNEL_BYPASS

    def reached(self, note: str, where: str) -> str:
        return (f"reaches a kernel-bypassing scheduler ({note} in "
                f"{where}); every scheduling decision must flow through "
                f"repro.sim.eventloop")

    def direct(self, origin: IntrinsicEffect, where: str) -> str:
        if origin.note.startswith("import "):
            return (f"{origin.note}: event scheduling belongs in "
                    f"repro.sim.eventloop; yield kernel events instead "
                    f"of keeping a private heap")
        if origin.note.startswith("from "):
            return (f"{origin.note}: event scheduling belongs in "
                    f"repro.sim.eventloop")
        if origin.target == "threading.Timer":
            return ("threading.Timer schedules on the wall clock "
                    "outside the kernel; use kernel.timeout()")
        return (f"{origin.target}() keeps a private heap outside the "
                f"kernel; yield kernel events instead")


@register_project
class RetryBurnRule(ProjectRule):
    id = "ERR002"
    severity = "error"
    description = ("Retry-shaped handler catches (and retries) a path "
                   "that raises a permanent error — retries are burned "
                   "on an outcome that cannot change")

    def check(self, project: Project,
              flow: Dataflow) -> Iterator[Finding]:
        for qname in sorted(project.functions):
            function = project.functions[qname]
            module_facts = project.modules[function.module]
            if self.id in module_facts.file_suppressed:
                continue
            for region in function.retry_regions:
                if region.reraises or region.guarded:
                    continue
                if module_facts.suppressed(region.handler_line, self.id):
                    continue
                caught = self._effective_catches(project, region.caught)
                if caught is None:
                    continue
                hit = self._permanent_in_body(project, flow, function,
                                              region, caught)
                if hit is None:
                    continue
                line, steps, root_qname, root = hit
                exc_short = root.detail.rsplit(".", 1)[-1] \
                    if root.detail else "a permanent error"
                yield self.finding(
                    project, qname, region.handler_line,
                    region.handler_col,
                    f"retry loop catches {exc_short} "
                    f"(transient=False) raised on the retried path: "
                    f"each attempt fails identically and burns the "
                    f"RetryPolicy budget; check is_transient(exc) or "
                    f"narrow the except to transient types",
                    region.snippet, steps)

    @staticmethod
    def _effective_catches(project: Project,
                           caught: Tuple[str, ...]
                           ) -> Optional[List[str]]:
        """The caught entries that could swallow a permanent error:
        broad names, or taxonomy classes not provably transient.
        None when every entry is taxonomy-transient (a safe handler)."""
        effective: List[str] = []
        for entry in caught:
            short = entry.rsplit(".", 1)[-1]
            if short in _BROAD_CATCHES:
                effective.append("")
                continue
            kind, resolved = project.resolve(entry)
            if kind != "class":
                # Unresolvable/builtin exception: it cannot catch the
                # project taxonomy's permanent errors.
                continue
            if project.class_transient(resolved) == "true":
                continue
            effective.append(resolved)
        return effective or None

    def _permanent_in_body(
            self, project: Project, flow: Dataflow,
            function: FunctionFacts, region: RetryRegion,
            caught: List[str]) -> Optional[
                Tuple[int, List[WitnessStep], str, Cause]]:
        # A permanent raise directly inside the retried body.
        for raise_ref in function.raises:
            if not region.body_start <= raise_ref.line <= region.body_end:
                continue
            if not raise_ref.exc:
                continue
            kind, resolved = project.resolve(raise_ref.exc)
            if kind != "class" or \
                    project.class_transient(resolved) != "false":
                continue
            if not self._catchable(project, caught, resolved):
                continue
            short = resolved.rsplit(".", 1)[-1]
            cause = Cause(kind="intrinsic", line=raise_ref.line, col=1,
                          note=f"raises {short} (transient=False)",
                          snippet=raise_ref.snippet, detail=resolved)
            step = WitnessStep(function=function.qname,
                               path=function.path, line=raise_ref.line,
                               note=cause.note)
            return (raise_ref.line, [step], function.qname, cause)
        # A call in the retried body reaching a permanent raise.
        for call in function.calls:
            if not region.body_start <= call.line <= region.body_end:
                continue
            edge = next((e for e in project.graph[function.qname]
                         if e.line == call.line and e.kind == "call"),
                        None)
            if edge is None:
                continue
            if flow.cause(edge.callee, RAISES_PERMANENT) is None:
                continue
            root = flow.root(edge.callee, RAISES_PERMANENT)
            if root is None:
                continue
            root_qname, root_cause = root
            if root_cause.detail and \
                    not self._catchable(project, caught,
                                        root_cause.detail):
                continue
            short = edge.callee.rsplit(".", 1)[-1]
            steps = [WitnessStep(function=function.qname,
                                 path=function.path, line=call.line,
                                 note=f"retried call to {short}()")]
            steps.extend(_chain_steps(flow, edge.callee,
                                      RAISES_PERMANENT))
            return (call.line, steps, root_qname, root_cause)
        return None

    @staticmethod
    def _catchable(project: Project, caught: List[str],
                   raised: str) -> bool:
        mro = project.mro(raised)
        for entry in caught:
            if entry == "":
                return True
            if entry in mro:
                return True
        return False


@register_project
class UntypedRaiseRule(EffectRule):
    id = "ERR003"
    severity = "error"
    description = ("A try whose handlers catch only TaxError reaches a "
                   "parser that raises untyped (json.loads, "
                   "base64.b64decode, marshal.loads, struct.unpack, "
                   "pickle.loads): malformed input escapes the handler "
                   "and ends the process")
    effect = RAISES_UNTYPED

    def reached(self, note: str, where: str) -> str:
        return (f"this handler catches only TaxError, but its try body "
                f"reaches an untyped raise ({note} in {where}); read "
                f"carried content through a typed reader "
                f"(Element.as_json) or convert the error")

    def check(self, project: Project,
              flow: Dataflow) -> Iterator[Finding]:
        for qname in sorted(project.functions):
            function = project.functions[qname]
            module_facts = project.modules[function.module]
            for region in function.try_regions:
                if not project.catches_only_tax_errors(region.caught) or \
                        module_facts.suppressed(region.handler_line,
                                                self.id):
                    continue
                hit = self._reached(project, flow, qname, region)
                if hit is None:
                    continue
                root_qname, root_cause, steps = hit
                yield self.finding(
                    project, qname, region.handler_line,
                    region.handler_col,
                    self.reached(root_cause.note,
                                 root_qname.rsplit(".", 1)[-1]),
                    region.snippet,
                    _caller_context(project, qname) + steps)

    def _reached(self, project: Project, flow: Dataflow, qname: str,
                 region: TryRegion) -> Optional[
                     Tuple[str, Cause, List[WitnessStep]]]:
        """The first untyped raise the ``try`` body reaches: an origin
        in it, or a call into a function that carries the effect."""
        function = project.functions[qname]
        inside = range(region.body_start, region.body_end + 1)
        for origin in flow.origins[qname]:
            if origin.effect == self.effect and origin.line in inside:
                cause = Cause(kind="intrinsic", line=origin.line,
                              col=origin.col, note=origin.note)
                return qname, cause, [WitnessStep(
                    function=qname, path=function.path,
                    line=origin.line, note=origin.note)]
        for edge in project.graph[qname]:
            if edge.kind != "call" or edge.line not in inside or \
                    flow.converts(qname, edge.line) or \
                    flow.cause(edge.callee, self.effect) is None:
                continue
            root = flow.root(edge.callee, self.effect)
            if root is None:
                continue
            short = edge.callee.rsplit(".", 1)[-1]
            steps = [WitnessStep(function=qname, path=function.path,
                                 line=edge.line,
                                 note=f"calls {short}() in the try")]
            return root[0], root[1], \
                steps + _chain_steps(flow, edge.callee, self.effect)
        return None


@register_project
class ReservedFolderRule(ProjectRule):
    id = "WIRE001"
    severity = "error"
    description = ("Reserved wire-only folder written by code that "
                   "cannot reach a receive_wire strip — the value "
                   "would leak into agent-visible briefcases")

    def check(self, project: Project,
              flow: Dataflow) -> Iterator[Finding]:
        strippers = project.reaches(WIRE_STRIP_ROOTS, reverse=True)
        for qname in sorted(project.functions):
            function = project.functions[qname]
            if not function.reserved_writes:
                continue
            module_facts = project.modules[function.module]
            if self.id in module_facts.file_suppressed:
                continue
            sanctioned = qname in strippers or qname in WIRE_WRITERS
            if not sanctioned:
                forward = project.reaches([qname])
                sanctioned = any(root in forward
                                 for root in WIRE_STRIP_ROOTS)
            if sanctioned:
                continue
            for write in function.reserved_writes:
                if module_facts.suppressed(write.line, self.id):
                    continue
                witness = _caller_context(project, qname)
                witness.append(WitnessStep(
                    function=qname, path=function.path, line=write.line,
                    note=f"writes reserved folder {write.folder} with "
                         f"no path to a strip site "
                         f"(decode_arrival/parse_seq/from_header)"))
                yield self.finding(
                    project, qname, write.line, write.col,
                    f"writes reserved wire-only folder {write.folder} "
                    f"outside the inject/strip pairing: nothing on "
                    f"this path strips it at receive_wire, so the "
                    f"value leaks into agent-visible briefcases and "
                    f"pollutes dedup/tracing state",
                    write.snippet, witness)


@register_project
class TransportCleanRule(EffectRule):
    id = "ASY001"
    severity = "warning"
    description = ("Transport-clean module reaches blocking I/O or the "
                   "virtual-time simulation; the real asyncio backend "
                   "must land on clean ground")
    effect = BLOCKING_IO

    def in_scope(self, module: str) -> bool:
        return module in ASY001_SCOPES

    def reached(self, note: str, where: str) -> str:
        return (f"transport-clean code reaches blocking I/O "
                f"({note} in {where}); the asyncio transport "
                f"backend cannot run this on its event loop — make the "
                f"wait explicit at the transport layer")


@register_project
class TransportSimCouplingRule(TransportCleanRule):
    effect = SIM_COUPLED

    def reached(self, note: str, where: str) -> str:
        return (f"transport-clean code is coupled to virtual time "
                f"({note}, via {where}); the real-transport "
                f"backend shares this code path — inject the clock/"
                f"scheduler through an interface instead")

