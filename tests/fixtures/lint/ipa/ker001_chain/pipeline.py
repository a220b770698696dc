"""KER001 (transitive): a private-heap push laundered through an alias.

A direct ``heapq.heappush()`` call is reported where it is; binding
``heapq.heappush`` to a name and calling the name is reported too: the
whole-program pass records the binding and reports at the innermost
function owning the laundered call, with the binding site in the
witness chain.  The import is sanctioned so only the calls report.
"""

import heapq  # lint: disable=KER001 - the laundered calls are under test

_push = heapq.heappush  # the laundering: a callable reference, not a call


def stamp(heap):  # finding: KER001 (transitive, via alias bound above)
    return _push(heap, 0)


def build_record(heap, payload):  # covered: the finding lands on stamp()
    return {"at": stamp(heap), "payload": payload}


def deliver(heap, payload):  # caller context for the witness chain
    return build_record(heap, payload)


def honest_stamp(heap):
    return heapq.heappush(heap, 0)  # finding: KER001 (direct call)
