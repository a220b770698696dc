"""KER001 (transitive): a private-heap push through functools.partial.

``functools.partial(heapq.heappush)`` produces a callable with no
visible call into ``heapq``; the whole-program pass unwraps the partial
at the binding site and reports the laundered push with a witness chain.
"""

import functools
import heapq  # lint: disable=KER001 - the laundered call is under test

push = functools.partial(heapq.heappush)


def jitter(heap):  # finding: KER001 (transitive, partial bound above)
    return push(heap, 0)


def plan_backoff(heap, attempt):  # covered: the finding lands on jitter()
    return (2 ** attempt) + jitter(heap)


def sorted_ok(items):
    return sorted(items)  # ok: no private heap
