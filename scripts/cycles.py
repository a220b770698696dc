#!/usr/bin/env python3
"""Census of what a finished world leaves for the cycle collector.

    PYTHONPATH=src python scripts/cycles.py [SUITE_FILE]

Runs each cell of SUITE_FILE (default ``examples/ci.suite.yaml``) with
the collector off, then collects once with ``gc.DEBUG_SAVEALL`` and
prints, per cell, the objects the collector had to find — by type — and
the strongly connected components among them, each as a type histogram.
A world that ends by reference counting prints ``0 objects``.

Exits 1 if any object of a ``repro.*`` type was left behind: the world
holds a back-reference that is neither structural-free nor cut by
``TaxCluster.close()`` (see docs/architecture.md, "World lifecycle").
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SUITE = os.path.join(HERE, "..", "examples", "ci.suite.yaml")

#: Types listed per cell and per component; components listed per cell.
TOP_TYPES = 8
TOP_COMPONENTS = 12


def type_name(obj: object) -> str:
    kind = type(obj)
    return f"{kind.__module__}.{kind.__qualname__}"


def is_world_object(obj: object) -> bool:
    return type(obj).__module__.startswith("repro.")


def left_for_collector(action) -> List[object]:
    """Run ``action()`` with the collector off; return what a collection
    afterwards finds unreachable (the cycles ``action`` left behind)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        action()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = list(gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
        if was_enabled:
            gc.enable()
    return found


def components(objects: List[object]) -> List[List[object]]:
    """Strongly connected components of the reference graph restricted
    to ``objects``, largest first (iterative Tarjan)."""
    index_of = {id(obj): i for i, obj in enumerate(objects)}
    edges = [[index_of[id(ref)] for ref in gc.get_referents(obj)
              if id(ref) in index_of] for obj in objects]
    order = [0] * len(objects)
    low = [0] * len(objects)
    seen = [False] * len(objects)
    on_stack = [False] * len(objects)
    stack: List[int] = []
    found: List[List[object]] = []
    counter = 1
    for root in range(len(objects)):
        if seen[root]:
            continue
        work = [(root, 0)]
        while work:
            node, edge = work.pop()
            if edge == 0:
                seen[node] = on_stack[node] = True
                order[node] = low[node] = counter
                counter += 1
                stack.append(node)
            if edge < len(edges[node]):
                work.append((node, edge + 1))
                nxt = edges[node][edge]
                if not seen[nxt]:
                    work.append((nxt, 0))
                elif on_stack[nxt]:
                    low[node] = min(low[node], order[nxt])
                continue
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == order[node]:
                members = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    members.append(objects[member])
                    if member == node:
                        break
                found.append(members)
    found.sort(key=len, reverse=True)
    return found


def histogram(objects: List[object]) -> str:
    counts = Counter(type_name(obj) for obj in objects)
    shown = ", ".join(f"{name} {n}"
                      for name, n in counts.most_common(TOP_TYPES))
    rest = len(counts) - TOP_TYPES
    return shown + (f", … {rest} more types" if rest > 0 else "")


def report(label: str, objects: List[object]) -> Tuple[int, int]:
    """Print one cell's census; returns (objects, of them repro.*)."""
    world = sum(1 for obj in objects if is_world_object(obj))
    print(f"{label}: {len(objects)} objects, {world} of repro.* types")
    if not objects:
        return 0, 0
    print(f"  by type: {histogram(objects)}")
    cycles = [members for members in components(objects)
              if len(members) > 1 or any(
                  ref is members[0] for ref in gc.get_referents(members[0]))]
    for members in cycles[:TOP_COMPONENTS]:
        print(f"  component of {len(members)}: {histogram(members)}")
    if len(cycles) > TOP_COMPONENTS:
        print(f"  … {len(cycles) - TOP_COMPONENTS} more components of at "
              f"most {len(cycles[TOP_COMPONENTS])} objects")
    held = len(objects) - sum(len(members) for members in cycles)
    if held:
        print(f"  {held} more in no cycle, kept alive by the above")
    return len(objects), world


def main(argv: List[str]) -> int:
    from repro.suites import load_suite
    from repro.suites.runner import run_cell

    path = argv[1] if len(argv) > 1 else DEFAULT_SUITE
    spec = load_suite(path)
    total = world = 0
    for index, cell in enumerate(spec.cells):
        statuses = []
        left = left_for_collector(lambda: statuses.append(
            run_cell(cell, spec.seed, index)["status"]))
        objects, of_world = report(f"{cell.cell_id} ({statuses[0]})", left)
        total += objects
        world += of_world
    print(f"total: {total} objects over {len(spec.cells)} cells, "
          f"{world} of repro.* types")
    return 1 if world else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
