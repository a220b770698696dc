"""The flight recorder that renders on arrival: the oracle the product's
raw-record ring is tested against.

``record`` and ``snapshot`` are transcribed from ``FlightRecorder`` as
it stood before rings kept raw ``(t, kind, detail)`` entries: every
record rounds the clock reading, sorts its detail and stores the
finished dict, and a snapshot copies those dicts.  Everything else —
``dump``, ``hosts``, ``reset``, the dump cap — is the product's own
code, inherited, so a difference in any snapshot or dump is the
deferred rendering's.
"""

from collections import deque
from typing import List

from repro.obs.flightrec import FlightRecorder


class ReferenceFlightRecorder(FlightRecorder):
    def record(self, host: str, kind: str, **detail) -> None:
        if not self.enabled:
            return
        ring = self._rings.get(host)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._rings[host] = ring
        event = {"t": round(self.clock(), 9), "kind": kind}
        if detail:
            event.update(sorted(detail.items()))
        ring.append(event)

    def snapshot(self, host: str) -> List[dict]:
        ring = self._rings.get(host)
        return [dict(event) for event in ring] if ring else []
