"""One float total, the same on every interpreter.

CPython 3.12 made ``sum`` over floats compensated, so the same values
can total to a different last bit than on 3.10 and 3.11 — enough to
move a virtual instant, a random draw and every document after it.
Every float total in the simulator goes through :func:`fold_sum`
instead.  It is the plain left fold that ``sum`` was before 3.12, so no
document written on 3.10 or 3.11 moves.  (``math.fsum`` is exact, but
it would move them all.)
"""

from __future__ import annotations

from typing import Iterable


def fold_sum(values: Iterable[float]) -> float:
    """``((0 + v0) + v1) + ...``, left to right; ``[]`` is ``0``."""
    total: float = 0
    for value in values:
        total += value
    return total
