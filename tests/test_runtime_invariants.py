"""Two invariants checked on the running code instead of its text.

- **Cells are independent.**  Every cell of the CI, smoke, durable and
  regression suites runs in one process in file order and then in
  reverse order, and each cell's document digest must be the same both
  times.  State that outlives a call — a mutable default argument, a
  module-level cache that changes results — makes a cell's document
  depend on the cells before it, and the reversed pass shows it.
- **Hot-path classes stay ``__dict__``-free.**  After importing every
  ``repro`` module, the kernel event classes and ``Message``, and each
  of their subclasses, must declare ``__slots__`` in their own class
  body (docs/architecture.md §9); one without them grows a ``__dict__``.

Each check is shown to fail on a planted defect.
"""

import collections
import dataclasses
import gc
import glob
import importlib
import os
import pkgutil

import pytest

import repro
from repro.firewall.message import Message
from repro.sim.eventloop import AllOf, AnyOf, Event, Process, Timeout
from repro.suites import registry
from repro.suites.runner import run_cell
from repro.suites.schema import load_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE = os.path.join(ROOT, "examples", "smoke.suite.yaml")
SUITES = [os.path.join(ROOT, "examples", "ci.suite.yaml"), SMOKE,
          os.path.join(ROOT, "benchmarks", "e2e", "durable.suite.yaml"),
          *sorted(glob.glob(os.path.join(ROOT, "examples", "regressions",
                                         "*.suite.yaml")))]

SLOTTED_BASES = (Event, Timeout, AnyOf, AllOf, Process, Message)


def suite_cells(paths):
    """``(suite seed, cell)`` for every cell of ``paths``, in file order."""
    return [(spec.seed, cell) for spec in map(load_suite, paths)
            for cell in spec.cells]


def digests_both_ways(cells):
    """Each cell's digest with all cells run in order, then with all run
    reversed (listed in file order), in this one process."""
    forward = [run_cell(cell, seed, include_document=False)["digest"]
               for seed, cell in cells]
    backward = [run_cell(cell, seed, include_document=False)["digest"]
                for seed, cell in reversed(cells)]
    return forward, backward[::-1]


def test_every_cell_digest_is_independent_of_cell_order():
    cells = suite_cells(SUITES)
    assert len(cells) >= 30
    forward, backward = digests_both_ways(cells)
    assert None not in forward
    moved = [cell.cell_id for (_, cell), a, b in zip(cells, forward, backward)
             if a != b]
    assert moved == []


# The MUT001 fixture's three shapes: state a default keeps between calls.

def _list_default(seed, bucket=[]):
    bucket.append(seed)
    return len(bucket)


def _dict_default(seed, table={}):
    table[seed] = len(table)
    return len(table)


def _counter_default(seed, counters=collections.Counter()):
    counters["cells"] += 1
    return counters["cells"]


@pytest.mark.parametrize("leak", [_list_default, _dict_default,
                                  _counter_default])
def test_a_mutable_default_in_a_plugin_moves_a_digest(monkeypatch, leak):
    chaos = registry.get_plugin("chaos")

    def run(**params):
        document = chaos.run(**params)
        document["leak"] = leak(params["seed"])
        return document

    monkeypatch.setitem(registry._REGISTRY, "chaos",
                        dataclasses.replace(chaos, run=run))
    cells = [(seed, cell) for seed, cell in suite_cells([SMOKE])
             if cell.plugin == "chaos"]
    assert len(cells) == 2
    forward, backward = digests_both_ways(cells)
    assert forward != backward


def slotless(bases):
    """Qualified names of ``bases`` and their subclasses, transitively,
    whose own class body declares no ``__slots__``."""
    found, seen = [], set()
    stack = list(bases)
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if "__slots__" not in cls.__dict__:
            found.append(f"{cls.__module__}.{cls.__qualname__}")
        stack.extend(cls.__subclasses__())
    return sorted(found)


def test_every_event_and_message_class_declares_slots():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    assert slotless(SLOTTED_BASES) == []


def test_a_slotless_base_is_named():
    class Envelope:
        pass

    assert slotless((Event, Envelope)) == [
        f"{__name__}.test_a_slotless_base_is_named.<locals>.Envelope"]


def test_a_slotless_subclass_is_named():
    # The MUT002 fixture's two findings: a direct and a qualified base.
    class FlashEvent(Event):
        def __init__(self, kernel, colour):
            super().__init__(kernel)
            self.colour = colour

    class TaggedMessage(Message):
        pass

    class SlottedEvent(Event):
        __slots__ = ("colour",)

    try:
        assert slotless(SLOTTED_BASES) == [
            f"{__name__}.test_a_slotless_subclass_is_named.<locals>.{name}"
            for name in ("FlashEvent", "TaggedMessage")]
    finally:
        del FlashEvent, TaggedMessage, SlottedEvent
        gc.collect()
