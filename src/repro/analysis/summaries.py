"""Effect summaries: what a call can *do*, independent of where.

The dataflow pass (:mod:`repro.analysis.dataflow`) propagates a small
closed set of effects bottom-up through the call graph.  This module
owns that vocabulary, the tables classifying *external* call targets
(standard-library and third-party names the graph cannot resolve into
the project), and the derivation of a function's *intrinsic* effects
from its :class:`~repro.analysis.symbols.ModuleFacts`.

Effect -> rule mapping is one-to-one where a rule exists; effects
without a consuming rule (``mutates-briefcase``) still propagate and
appear in ``repro lint --graph`` exports.

Suppressions are *propagation barriers*: an intrinsic effect whose
origin line carries ``# lint: disable=<rule>`` (or whose module
carries the file-wide form) is sanctioned at the source and never
enters the dataflow — one justified ``heapq`` import in a helper must
not taint every CLI entry point that calls it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.symbols import FunctionFacts, ModuleFacts

# -- the effect vocabulary --------------------------------------------------

BLOCKING_IO = "blocking-io"
KERNEL_BYPASS = "kernel-bypass"
RAISES_PERMANENT = "raises-permanent"
MUTATES_BRIEFCASE = "mutates-briefcase"
#: Raises an exception outside the TAX taxonomy on malformed input
#: (ERR003): parsing that no ``TaxError`` handler can catch.
RAISES_UNTYPED = "raises-untyped"
#: Pseudo-effect: the function lives in (or transitively enters) the
#: virtual-time simulation — code slated for the real transport backend
#: must stay clean of it (ASY001).
SIM_COUPLED = "sim-coupled"

#: Effect -> lint rule id enforcing it (used both for suppression
#: barriers and for attributing findings).
EFFECT_RULE: Dict[str, str] = {
    KERNEL_BYPASS: "KER001",
    BLOCKING_IO: "ASY001",
    SIM_COUPLED: "ASY001",
    RAISES_PERMANENT: "ERR002",
    RAISES_UNTYPED: "ERR003",
}

#: The only module allowed to schedule via heapq/sched/threading timers.
KERNEL_MODULES = ("repro.sim.eventloop",)

#: Effect -> module prefixes allowed to *originate* it.  Functions in a
#: sanctuary module never acquire the effect, so nothing propagates out
#: of them — the kernel may keep its heap.
EFFECT_SANCTUARIES: Dict[str, Tuple[str, ...]] = {
    KERNEL_BYPASS: KERNEL_MODULES,
}

# -- external call classification -------------------------------------------

#: Calls that block on the host OS — poison for the deterministic sim
#: and for the planned asyncio transport backend's event loop.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "socket.socket", "socket.create_connection", "socket.getaddrinfo",
    "select.select", "select.poll", "select.epoll",
    "subprocess.run", "subprocess.Popen", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "urllib.request.urlopen", "http.client.HTTPConnection",
    "requests.get", "requests.post", "requests.request",
    "input", "sys.stdin.read", "sys.stdin.readline",
})

#: Parsers whose malformed-input errors are untyped (``ValueError``,
#: ``binascii.Error``, ``struct.error``, ``pickle.UnpicklingError``).
UNTYPED_RAISE_CALLS = frozenset({
    "json.loads", "base64.b64decode", "marshal.loads", "struct.unpack",
    "pickle.loads",
})

#: Scheduling modules that bypass the kernel: importing one is already
#: an origin, and so is calling into it.
_SCHEDULER_MODULES = ("heapq", "sched")
_KERNEL_BYPASS_PREFIXES = ("heapq.", "sched.")
_KERNEL_BYPASS_CALLS = frozenset({"threading.Timer"})


def external_effects(target: str) -> Tuple[str, ...]:
    """Effects of calling the unresolved external ``target``; returns
    a sorted tuple (determinism)."""
    effects: List[str] = []
    if target in BLOCKING_CALLS:
        effects.append(BLOCKING_IO)
    if target in _KERNEL_BYPASS_CALLS or \
            target.startswith(_KERNEL_BYPASS_PREFIXES):
        effects.append(KERNEL_BYPASS)
    if target in UNTYPED_RAISE_CALLS:
        effects.append(RAISES_UNTYPED)
    return tuple(sorted(effects))


def in_sanctuary(effect: str, module: str) -> bool:
    return module in EFFECT_SANCTUARIES.get(effect, ())


class IntrinsicEffect:
    """One effect a function exhibits in its own body: an origin."""

    __slots__ = ("effect", "line", "col", "note", "snippet", "target")

    def __init__(self, effect: str, line: int, col: int, note: str,
                 snippet: str, target: str = "") -> None:
        self.effect = effect
        self.line = line
        self.col = col
        #: Human phrase for witness chains ("heapq.heappush called
        #: through an alias bound at line 11").
        self.note = note
        self.snippet = snippet
        #: What a direct origin names — the called target
        #: (``threading.Timer``) or the imported module;
        #: "" when the origin is laundered (alias, partial, decorator).
        self.target = target


def intrinsic_effects(facts: FunctionFacts,
                      module_facts: ModuleFacts) -> List[IntrinsicEffect]:
    """A function's own effects, suppression- and sanctuary-filtered.

    Deterministic: ordered by (line, col, effect).
    """
    found: List[IntrinsicEffect] = []

    def add(effect: str, line: int, col: int, note: str, snippet: str,
            target: str = "") -> None:
        if in_sanctuary(effect, facts.module):
            return
        rule = EFFECT_RULE.get(effect)
        if rule is not None and module_facts.suppressed(line, rule):
            return
        found.append(IntrinsicEffect(effect, line, col, note, snippet,
                                     target))

    if facts.module.startswith("repro.sim.") or \
            facts.module == "repro.sim":
        add(SIM_COUPLED, facts.line, 1,
            f"defined in virtual-time module {facts.module}", "")

    for imported in facts.imports:
        if imported.module.split(".", 1)[0] in _SCHEDULER_MODULES:
            note = f"from {imported.module} import ..." \
                if imported.from_import else f"import {imported.module}"
            add(KERNEL_BYPASS, imported.line, imported.col, note,
                imported.snippet, imported.module)

    for call in facts.calls:
        for effect in external_effects(call.target):
            target = call.target if call.via == "" else ""
            note = f"{call.target}()"
            if call.via == "alias":
                note = (f"{call.target} called through an alias bound at "
                        f"line {call.bind_line}")
            elif call.via == "partial":
                note = (f"{call.target} called through functools.partial "
                        f"bound at line {call.bind_line}")
            elif call.via == "decorator":
                note = f"{call.target} applied as a decorator"
            add(effect, call.line, call.col, note, call.snippet, target)

    # Raise permanence needs the project-wide class taxonomy, so
    # RAISES_PERMANENT is attached by the dataflow pass, not here.

    for line in sorted(set(facts.briefcase_mutations)):
        add(MUTATES_BRIEFCASE, line, 1, "briefcase mutated", "")

    found.sort(key=lambda e: (e.line, e.col, e.effect))
    return found
