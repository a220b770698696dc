"""DET001 through methods: ``self`` is bound to the defining class.

``Ledger._stamp`` reaches ``time.time`` twice: through a method on a
typed attribute (``self.clock.read()``) and through an attribute alias
(``self._clock = time.time``).  Its callers reach it as ``self._stamp()``,
one of them from a def nested in a method, where ``self`` is still the
``Ledger``.
"""

import time


class WallClock:
    def read(self):
        return time.time()  # finding: DET001 (direct call)


class Ledger:
    def __init__(self):
        self.clock = WallClock()
        self._clock = time.time

    def _stamp(self):  # finding: DET001 (via the attribute alias)
        return self.clock.read(), self._clock()

    def record(self, entry):  # covered: the finding lands on _stamp()
        return self._stamp(), entry

    def replay(self, entries):
        def one(entry):  # nested def: caller context for the witness
            return self.record(entry)
        return [one(entry) for entry in entries]
