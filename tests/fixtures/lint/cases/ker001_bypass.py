"""KER001 fixture: scheduling primitives bypassing the kernel."""

import heapq                                 # finding: private heap
import threading
from sched import scheduler                  # finding: stdlib scheduler


def ticker(callback):
    timer = threading.Timer(1.0, callback)   # finding: wall-clock timer
    heap = []
    heapq.heappush(heap, (0.0, callback))   # finding: private heap push
    return timer, heap


import sched  # lint: disable=KER001 - fixture suppression
