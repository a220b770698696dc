"""KER001 through methods: ``self`` is bound to the defining class.

``Ledger._stamp`` reaches ``heapq`` twice: through a method on a typed
attribute (``self.agenda.next()``) and through an attribute alias
(``self._push = heapq.heappush``).  Its callers reach it as
``self._stamp()``, one of them from a def nested in a method, where
``self`` is still the ``Ledger``.
"""

import heapq  # lint: disable=KER001 - the laundered calls are under test


class Agenda:
    def next(self, heap):
        return heapq.heappop(heap)  # finding: KER001 (direct call)


class Ledger:
    def __init__(self):
        self.agenda = Agenda()
        self._push = heapq.heappush

    def _stamp(self, heap):  # finding: KER001 (via the attribute alias)
        return self.agenda.next(heap), self._push(heap, 0)

    def record(self, heap, entry):  # covered: the finding lands on _stamp()
        return self._stamp(heap), entry

    def replay(self, heap, entries):
        def one(entry):  # nested def: caller context for the witness
            return self.record(heap, entry)
        return [one(entry) for entry in entries]
