"""Per-layer tracing from outside the program, via ``cProfile``.

Every Python function entry/exit is a span boundary and the calling
function is the span's parent; ``cProfile`` aggregates the spans in
memory per (parent function, function) edge — call count and self time
— and they are written out with the result.  A function's layer comes
from the one fixed table below (module prefix → layer).  Time in C
calls is part of the calling function's self time, and the self time of
functions outside ``repro`` (stdlib, dataclass-generated methods) is
charged to the layers of the ``repro`` functions that called them, in
proportion to the self time spent under each caller — so every layer's
self time is what the program spends *on behalf of* that layer.

``cProfile`` was chosen over a Python-level ``sys.setprofile`` hook
because its per-call cost is several times smaller: the cost lands on
call-dense layers, so the cheaper the hook the truer the shares.
Shares (not seconds) of two traced runs of different code are what is
compared; call counts are exact.
"""

from __future__ import annotations

import cProfile
import os
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

DRIVER = "driver"

#: Module prefix → layer; first match wins, so specific rows come first.
LAYER_TABLE: Tuple[Tuple[str, str], ...] = (
    ("repro.web.site", "web.site"),
    ("repro.web.page", "web.page"),
    ("repro.web.urls", "web.urls"),
    ("repro.web.client", "web.client"),
    ("repro.web.server", "web.server"),
    ("repro.sim.rng", "sim.rng"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.ledger", "sim.ledger"),
    ("repro.sim.host", "sim.host"),
    ("repro.sim.faults", "chaos"),
    ("repro.sim", "sim.eventloop"),
    ("repro.robot", "robot"),
    ("repro.mining", "mining"),
    ("repro.firewall.firewall", "firewall.firewall"),
    ("repro.firewall.governor", "firewall.governor"),
    ("repro.firewall.msgqueue", "firewall.msgqueue"),
    ("repro.firewall.dedup", "firewall.dedup"),
    ("repro.firewall", "firewall.other"),
    ("repro.obs.metrics", "obs.metrics"),
    ("repro.obs.tracing", "obs.tracing"),
    ("repro.obs.flightrec", "obs.flightrec"),
    ("repro.obs", "obs.other"),
    ("repro.agent", "agent"),
    ("repro.core.briefcase", "core.briefcase"),
    ("repro.core.folder", "core.briefcase"),
    ("repro.core.element", "core.briefcase"),
    ("repro.core.codec", "core.codec"),
    ("repro.core", "core.other"),
    ("repro.durability", "durability"),
    ("repro.vm", "vm"),
    ("repro.chaos", "chaos"),
    ("repro.wrappers", "wrappers"),
    ("repro.services", "services"),
    ("repro.suites", "suites"),
    ("repro.system", "system"),
    # Scenario drivers and tooling: harness cost, not a product layer.
    ("repro", DRIVER),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _prefix, layer in LAYER_TABLE))

#: Code shipped as source and compiled at the landing host has no module.
#: The statically linked Webbot program is the robot; any other shipped
#: program is agent code.
_SHIPPED_WEBBOT = "<compiled webbot-linked>"
_SHIPPED_PREFIXES = ("<compiled ", "<shipped")


def layer_of_module(module: str) -> Optional[str]:
    """The layer of a dotted module name, ``None`` outside ``repro``."""
    for prefix, layer in LAYER_TABLE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class LayerTracer:
    """Aggregating span recorder; ``with tracer:`` bounds a pass (several
    passes accumulate)."""

    def __init__(self, package_root: str, driver_root: str):
        self._package_root = os.path.join(os.path.abspath(package_root), "")
        self._driver_root = os.path.join(os.path.abspath(driver_root), "")
        self._profile = cProfile.Profile(builtins=False)

    def __enter__(self) -> "LayerTracer":
        self._profile.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profile.disable()

    def _own_layer(self, code) -> Optional[str]:
        filename = code.co_filename
        if filename.startswith(self._package_root):
            relative = filename[len(self._package_root):]
            module = os.path.splitext(relative)[0].replace(os.sep, ".")
            return layer_of_module(module)
        if filename.startswith(self._driver_root):
            return DRIVER
        if filename == _SHIPPED_WEBBOT:
            return "robot"
        if filename.startswith(_SHIPPED_PREFIXES):
            return "agent"
        return None

    def _name(self, code) -> str:
        filename = code.co_filename
        for root in (self._package_root, self._driver_root):
            if filename.startswith(root):
                filename = filename[len(root):]
        return f"{filename}:{code.co_firstlineno}:{code.co_name}"

    def _entries(self) -> list:
        return sorted(self._profile.getstats(),
                      key=lambda entry: self._name(entry.code))

    # -- reading the pass ---------------------------------------------------

    def python_calls(self) -> int:
        """Every Python function entered, inside ``repro`` or not."""
        return sum(entry.callcount for entry in self._profile.getstats())

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds charged to it, their share of the
        traced time, and calls of its own functions."""
        entries = self._entries()
        own = {entry.code: self._own_layer(entry.code) for entry in entries}
        #: outside-repro function → [(caller, self time under that caller)]
        inbound: Dict[object, list] = defaultdict(list)
        for entry in entries:
            for edge in entry.calls or ():
                if own[edge.code] is None:
                    # The epsilon keeps zero-time edges proportional to
                    # their call counts.
                    inbound[edge.code].append(
                        (entry.code,
                         edge.inlinetime + 1e-12 * edge.callcount))

        resolved: Dict[object, Dict[str, float]] = {}

        def charged_to(code, visiting: set) -> Dict[str, float]:
            if own[code] is not None:
                return {own[code]: 1.0}
            if code in resolved:
                return resolved[code]
            if code in visiting:        # recursion outside repro
                return {}
            visiting.add(code)
            weights: Dict[str, float] = defaultdict(float)
            for caller, seconds in inbound[code]:
                for layer, share in charged_to(caller, visiting).items():
                    weights[layer] += seconds * share
            visiting.discard(code)
            total = sum(weights.values())
            shares = {layer: w / total for layer, w in weights.items()} \
                if total else {DRIVER: 1.0}
            if not visiting:
                resolved[code] = shares
            return shares

        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for entry in entries:
            layer = own[entry.code]
            if layer is not None:
                totals[layer]["calls"] += entry.callcount
            for layer, share in charged_to(entry.code, set()).items():
                totals[layer]["self_s"] += entry.inlinetime * share
        traced_s = sum(total["self_s"] for total in totals.values())
        for total in totals.values():
            total["self_share"] = total["self_s"] / traced_s
        return totals

    def spans(self) -> List[dict]:
        """The aggregated spans, heaviest first (for the span dump)."""
        rows = []
        for entry in self._entries():
            for edge in entry.calls or ():
                rows.append({"parent": self._name(entry.code),
                             "name": self._name(edge.code),
                             "layer": self._own_layer(edge.code),
                             "calls": edge.callcount,
                             "self_s": edge.inlinetime})
            rows.append({"parent": None, "name": self._name(entry.code),
                         "layer": self._own_layer(entry.code),
                         "calls": entry.callcount,
                         "self_s": entry.inlinetime})
        rows.sort(key=lambda row: (-row["self_s"], row["name"],
                                   row["parent"] or ""))
        return rows
