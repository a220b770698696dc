"""KER001 (transitive): a kernel-bypassing heap laundered via alias.

The import line carries one KER001 finding; binding
``heapq.heappush`` to a bare name and calling it is another (the
alias would survive even if the import moved behind a suppressed
facade).
"""

import heapq  # finding: KER001 (banned import)

push = heapq.heappush


def enqueue(heap, item):  # finding: KER001 (transitive, via alias)
    push(heap, item)


def schedule_batch(heap, items):  # covered: lands on enqueue()
    for item in items:
        enqueue(heap, item)
