"""Calibrated seconds: host-speed-independent timing for the e2e benchmark.

This sandbox's speed shifts in steps that last tens of seconds, so raw
wall time of the *same* code moves by tens of percent between runs.
Every timed region is therefore bracketed by a fixed pure-Python kernel
timed immediately before and after it, and the region's cost is
reported relative to the kernel::

    calibrated = raw_seconds / mean(kernel_before, kernel_after) * CAL_REF_S

which equals real seconds on a host that runs the kernel in exactly
``CAL_REF_S``.  Results taken with different kernels are not comparable,
so the kernel's source hash travels with every result and the kernel
(`_Cell`, `_walk`, `_arena`, `kernel` and their constants) is never
edited.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import struct
from heapq import heappop, heappush
from time import perf_counter

#: Seconds one kernel pass takes on a host at nominal speed.
CAL_REF_S = 0.025

#: A region whose two bracketing kernel passes differ by more than this
#: saw the host change speed underneath it and is discarded.
MAX_BRACKET_DISAGREEMENT = 0.25

_LAPS = 24
_CELLS = 450
_ARENA_CELLS = 16_000
_ARENA_STEPS = 3_400
_MASK = 0xFFFFFFFF
_PAIR = struct.Struct(">IH")


class _Cell:
    __slots__ = ("key", "weight", "hits", "links")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight
        self.hits = 0
        self.links = ()

    def touch(self, amount):
        self.hits += 1
        self.weight = (self.weight * 31 + amount) & 0xFFFF
        return self.weight

    def peek(self, amount):
        return (self.weight * 31 + amount) & 0xFFFF


def _walk(cells):
    for cell in cells:
        yield cell.touch(len(cell.key))


def _arena(n):
    cells = [_Cell(f"cell-{i}", i) for i in range(n)]
    for i, cell in enumerate(cells):
        cell.links = [cells[(i * 7919 + j * 104729 + 1) % n]
                      for j in range(4)]
    return cells


#: A few megabytes of linked objects the kernel chases pointers through.
#: Never mutated, so every pass walks the same path.
_ARENA = _arena(_ARENA_CELLS)


def kernel():
    """The fixed unit of work, in two parts tuned so that the kernel
    slows down with the host by the same factor the workloads do.

    Compute part: dict/str churn, ``__slots__`` allocation and method
    calls, generator resumes, heap push/pop, struct pack/unpack,
    join/split — the operation mix of the simulator's hot paths, in a
    cache-resident working set.  Memory part: a pointer chase with small
    method calls and dict updates across ``_ARENA``.  This host moves
    between a fast and a slow mode about 1.5x apart for compute-bound
    code but only 1.2x for memory-bound code; the workloads sit between
    (1.32-1.40x), and so does this blend (see README.md).

    Returns a checksum that pins the work done."""
    checksum = 0
    for lap in range(_LAPS):
        table = {}
        cells = []
        for i in range(_CELLS):
            key = f"k{lap}-{i * 7919 % 211}"
            table[key] = table.get(key, 0) + i
            cells.append(_Cell(key, i))
        for weight in _walk(cells):
            checksum = (checksum + weight) & _MASK
        heap = []
        for cell in cells:
            heappush(heap, (cell.weight, cell.hits, cell.key))
        while heap:
            weight, _hits, key = heappop(heap)
            checksum = (checksum * 33 + weight + len(key)) & _MASK
        blob = b"".join(_PAIR.pack(value & _MASK, len(key))
                        for key, value in table.items())
        for value, size in _PAIR.iter_unpack(blob):
            checksum ^= value + size
        text = ",".join(table)
        checksum = (checksum + len(text.split(","))) & _MASK
    visits = {}
    cell = _ARENA[0]
    for step in range(_ARENA_STEPS):
        checksum = (checksum + cell.peek(step & 7)) & _MASK
        key = cell.key
        visits[key] = visits.get(key, 0) + 1
        cell = cell.links[checksum & 3]
    return (checksum + len(visits)) & _MASK


#: What :func:`kernel` must return; anything else means its work changed.
KERNEL_CHECKSUM = 1415480969

#: Identity of the kernel: its source plus the checksum, which moves with
#: every constant the source reads.
KERNEL_SHA256 = hashlib.sha256("".join(
    [inspect.getsource(part) for part in (_Cell, _walk, _arena, kernel)]
    + [str(KERNEL_CHECKSUM)]).encode("utf-8")).hexdigest()


def kernel_seconds() -> float:
    """Raw seconds of one kernel pass (after a ``gc.collect()``)."""
    gc.collect()
    start = perf_counter()
    checksum = kernel()
    elapsed = perf_counter() - start
    if checksum != KERNEL_CHECKSUM:
        raise RuntimeError(
            f"calibration kernel returned {checksum}, expected "
            f"{KERNEL_CHECKSUM}: its work is no longer fixed")
    return elapsed


class Region:
    """One timed region and the two kernel passes around it."""

    __slots__ = ("raw_s", "before_s", "after_s")

    def __init__(self, raw_s: float, before_s: float, after_s: float):
        self.raw_s = raw_s
        self.before_s = before_s
        self.after_s = after_s

    @property
    def calibrated_s(self) -> float:
        return self.raw_s / ((self.before_s + self.after_s) / 2) * CAL_REF_S

    @property
    def steady(self) -> bool:
        """False when the host changed speed across the region."""
        low, high = sorted((self.before_s, self.after_s))
        return high / low - 1.0 <= MAX_BRACKET_DISAGREEMENT


def bracket(fn, before_s=None):
    """Run ``fn()`` as one bracketed region; returns ``(result, Region)``.

    ``before_s`` reuses the previous region's trailing kernel pass when
    only a few milliseconds of untimed checking separate the regions.
    """
    if before_s is None:
        before_s = kernel_seconds()
    gc.collect()
    start = perf_counter()
    result = fn()
    raw_s = perf_counter() - start
    return result, Region(raw_s, before_s, kernel_seconds())
