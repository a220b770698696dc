"""Worklist effect propagation over the SCC-condensed call graph.

Each function starts from its *intrinsic* effects
(:func:`repro.analysis.summaries.intrinsic_effects`, plus
``raises-permanent`` which needs the project-wide error taxonomy) and
absorbs the effects of every resolved callee, bottom-up: Tarjan's
algorithm (iterative, over sorted nodes and sorted adjacency, so the
SCC order is a pure function of the graph) emits strongly connected
components callees-first, and mutually recursive functions reach a
fixpoint within their component.

Two kinds of *barriers* stop propagation, both meaning "a human already
sanctioned this":

* an inline ``# lint: disable=<rule>`` on the call site (or origin
  line) of the rule mapped to the effect;
* the per-effect sanctuary modules (``repro.sim.rng`` may draw entropy,
  ``repro.sim.eventloop`` may keep its heap) — effects never escape a
  sanctuary function.

For every (function, effect) the pass records the *first* cause found
— an intrinsic origin or the call edge it arrived through — in
deterministic processing order, and :meth:`Dataflow.chain` replays
cause links into the witness path rendered with findings.  Every
intrinsic origin is kept too (:attr:`Dataflow.origins`): a rule
reports each one, not only the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import Edge, Project
from repro.analysis.summaries import (
    EFFECT_RULE,
    RAISES_PERMANENT,
    RAISES_UNTYPED,
    IntrinsicEffect,
    in_sanctuary,
    intrinsic_effects,
)


@dataclass(frozen=True)
class Cause:
    """Why a function carries an effect."""

    #: ``"intrinsic"`` (its own body) or ``"edge"`` (a callee).
    kind: str
    line: int
    col: int
    #: Human phrase for the witness chain.
    note: str
    #: Callee qname for ``"edge"`` causes, else "".
    callee: str = ""
    snippet: str = ""
    #: Machine-readable payload (the resolved exception class qname for
    #: ``raises-permanent`` origins — ERR002 checks catchability).
    detail: str = ""


class Dataflow:
    """Effect summaries for every function in a :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: qname -> effect -> first cause.
        self.effects: Dict[str, Dict[str, Cause]] = {}
        #: qname -> every intrinsic origin, by (line, col, effect).
        self.origins: Dict[str, List[IntrinsicEffect]] = {}
        self._propagate()

    # -- seeding ------------------------------------------------------------

    def _seed(self, qname: str) -> Dict[str, Cause]:
        function = self.project.functions[qname]
        module_facts = self.project.modules[function.module]
        seeded: Dict[str, Cause] = {}
        self.origins[qname] = [
            origin for origin in intrinsic_effects(function, module_facts)
            if origin.effect != RAISES_UNTYPED or
            not self.converts(qname, origin.line)]
        for intrinsic in self.origins[qname]:
            if intrinsic.effect not in seeded:
                seeded[intrinsic.effect] = Cause(
                    kind="intrinsic", line=intrinsic.line,
                    col=intrinsic.col, note=intrinsic.note,
                    snippet=intrinsic.snippet)
        permanent = self._permanent_raise(qname)
        if permanent is not None and RAISES_PERMANENT not in seeded:
            seeded[RAISES_PERMANENT] = permanent
        return seeded

    def _permanent_raise(self, qname: str) -> Optional[Cause]:
        function = self.project.functions[qname]
        module_facts = self.project.modules[function.module]
        rule = EFFECT_RULE[RAISES_PERMANENT]
        for raise_ref in function.raises:
            if not raise_ref.exc:
                continue
            kind, resolved = self.project.resolve(raise_ref.exc)
            if kind != "class":
                continue
            if self.project.class_transient(resolved) != "false":
                continue
            if module_facts.suppressed(raise_ref.line, rule):
                continue
            short = resolved.rsplit(".", 1)[-1]
            return Cause(kind="intrinsic", line=raise_ref.line, col=1,
                         note=f"raises {short} (transient=False)",
                         snippet=raise_ref.snippet,
                         detail=resolved)
        return None

    # -- propagation --------------------------------------------------------

    def _adjacency(self) -> Dict[str, List[str]]:
        adjacency: Dict[str, List[str]] = {}
        for qname in sorted(self.project.functions):
            callees = {edge.callee for edge in self.project.graph[qname]
                       if edge.kind == "call" and
                       edge.callee in self.project.functions}
            adjacency[qname] = sorted(callees)
        return adjacency

    def _sccs(self, adjacency: Dict[str, List[str]]) -> List[List[str]]:
        """Iterative Tarjan; components are emitted callees-first and
        each component's member list is sorted."""
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        components: List[List[str]] = []
        counter = 0
        for root in sorted(adjacency):
            if root in index:
                continue
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, position = work.pop()
                if position == 0:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                descended = False
                successors = adjacency[node]
                while position < len(successors):
                    successor = successors[position]
                    position += 1
                    if successor not in index:
                        work.append((node, position))
                        work.append((successor, 0))
                        descended = True
                        break
                    if successor in on_stack:
                        low[node] = min(low[node], index[successor])
                if descended:
                    continue
                if low[node] == index[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return components

    def _propagate(self) -> None:
        adjacency = self._adjacency()
        for qname in sorted(self.project.functions):
            self.effects[qname] = self._seed(qname)
        for component in self._sccs(adjacency):
            members = set(component)
            changed = True
            while changed:
                changed = False
                for qname in component:
                    for edge in self.project.graph[qname]:
                        if edge.kind != "call":
                            continue
                        if edge.callee not in self.project.functions:
                            continue
                        if self._absorb(qname, edge):
                            changed = True
                # A single pass suffices unless the component is a
                # genuine cycle that grew new effects this round.
                if len(members) == 1:
                    break

    def _absorb(self, caller: str, edge: Edge) -> bool:
        """Pull the callee's effects across one edge; returns True when
        the caller gained an effect."""
        callee_function = self.project.functions[edge.callee]
        caller_function = self.project.functions[caller]
        module_facts = self.project.modules[caller_function.module]
        gained = False
        callee_effects = self.effects[edge.callee]
        caller_effects = self.effects[caller]
        for effect in sorted(callee_effects):
            if effect in caller_effects:
                continue
            if in_sanctuary(effect, callee_function.module):
                continue
            if effect == RAISES_UNTYPED and self.converts(caller, edge.line):
                continue
            rule = EFFECT_RULE.get(effect)
            if rule is not None and \
                    module_facts.suppressed(edge.line, rule):
                continue
            short = edge.callee.rsplit(".", 1)[-1]
            note = f"calls {short}()"
            if edge.via == "alias":
                note = (f"calls {short}() through an alias bound at "
                        f"line {edge.bind_line}")
            elif edge.via == "partial":
                note = (f"calls {short}() through functools.partial "
                        f"bound at line {edge.bind_line}")
            elif edge.via == "decorator":
                note = f"applies {short} as a decorator"
            caller_effects[effect] = Cause(
                kind="edge", line=edge.line, col=edge.col, note=note,
                callee=edge.callee, snippet=edge.snippet)
            gained = True
        return gained

    def converts(self, qname: str, line: int) -> bool:
        """``line`` of ``qname`` lies in the body of a ``try`` with a
        handler for something other than a ``TaxError``: an untyped
        raise there is converted (or handled) on the spot."""
        return any(
            region.body_start <= line <= region.body_end and
            not self.project.catches_only_tax_errors(region.caught)
            for region in self.project.functions[qname].try_regions)

    # -- witnesses ----------------------------------------------------------

    def cause(self, qname: str, effect: str) -> Optional[Cause]:
        return self.effects.get(qname, {}).get(effect)

    def chain(self, qname: str,
              effect: str) -> List[Tuple[str, str, int, str]]:
        """The cause chain for (function, effect), innermost last:
        ``(function qname, display path, line, note)`` tuples."""
        steps: List[Tuple[str, str, int, str]] = []
        seen: Set[str] = set()
        current: Optional[str] = qname
        while current is not None and current not in seen:
            seen.add(current)
            cause = self.cause(current, effect)
            if cause is None:
                break
            function = self.project.functions[current]
            steps.append((current, function.path, cause.line, cause.note))
            current = cause.callee if cause.kind == "edge" else None
        return steps

    def root(self, qname: str, effect: str) -> Optional[Tuple[str, Cause]]:
        """The chain's origin: ``(function qname, intrinsic cause)``,
        or None when the chain is broken (cache corruption, cycles)."""
        seen: Set[str] = set()
        current = qname
        while current not in seen:
            seen.add(current)
            cause = self.cause(current, effect)
            if cause is None:
                return None
            if cause.kind == "intrinsic":
                return (current, cause)
            current = cause.callee
        return None
