"""Fixture: a file-wide suppression silences every KER001 occurrence.

# lint: disable-file=KER001
"""

import heapq


def pushes(heap):
    return heapq.heappush(heap, 1), heapq.heappush(heap, 2)  # silenced
