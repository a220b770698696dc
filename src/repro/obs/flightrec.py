"""Flight recorder: bounded per-host ring buffers for post-mortems.

Counters say *how many* admissions were rejected; they cannot say what
the last thirty events on a host were when it crashed.  The flight
recorder keeps exactly that: a small ``deque(maxlen=N)`` per host fed by
the firewall (admissions, rejections, quarantines), the network
(breaker transitions), the fault injector, and the mobility layer
(hops).  On crash or poison quarantine the ring is frozen into a
*dump* — the black box the chaos and overload experiments embed in
their JSON documents.

Everything is gated on ``enabled`` and timestamps come from the bound
virtual clock, so the disabled path allocates nothing and dumps are
deterministic for a fixed seed.

A ring holds events *raw* — ``(clock reading, kind, detail kwargs)`` —
and :meth:`FlightRecorder.snapshot` renders them into the documented
``{"t", "kind", **sorted detail}`` dicts.  Most events are overwritten
unread, so rounding and sorting happen only for the ones a dump
freezes.  Detail values are scalars (``str``, numbers, ``bool``,
``None``), so what a later read renders is what was recorded.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

#: One raw ring entry: the clock reading, the kind, the detail kwargs.
RawEvent = Tuple[float, str, dict]

#: Events retained per host before the oldest are overwritten.
DEFAULT_CAPACITY = 64

#: Post-mortem dumps retained (oldest evicted) — a chaos scenario can
#: crash many hosts; the document should stay bounded.
MAX_DUMPS = 16


class FlightRecorder:
    """Per-host ring buffer of recent events, dumpable on failure."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = False,
                 clock: Optional[Callable[[], float]] = None):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.enabled = enabled
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self._rings: Dict[str, Deque[RawEvent]] = {}
        #: Frozen post-mortems, oldest first (bounded by MAX_DUMPS).
        self.dumps: List[dict] = []
        self.dumps_evicted = 0

    # -- recording -----------------------------------------------------------

    def record(self, host: str, kind: str, **detail) -> None:
        """Append one event to ``host``'s ring (no-op when disabled)."""
        if not self.enabled:
            return
        ring = self._rings.get(host)
        if ring is None:
            ring = self._rings[host] = deque(maxlen=self.capacity)
        ring.append((self.clock(), kind, detail))

    # -- reading -------------------------------------------------------------

    def snapshot(self, host: str) -> List[dict]:
        """The host's ring, oldest first, rendered (fresh dicts; the ring
        keeps recording)."""
        events = []
        for t, kind, detail in self._rings.get(host, ()):
            event = {"t": round(t, 9), "kind": kind}
            if detail:
                event.update(sorted(detail.items()))
            events.append(event)
        return events

    def hosts(self) -> List[str]:
        return sorted(self._rings)

    # -- post-mortems --------------------------------------------------------

    def dump(self, host: str, reason: str) -> Optional[dict]:
        """Freeze ``host``'s ring into a post-mortem document.

        Returns the dump (also appended to :attr:`dumps`), or None when
        disabled.  The ring itself keeps recording — a restarted host
        that crashes again produces a second, later dump.
        """
        if not self.enabled:
            return None
        document = {
            "host": host,
            "reason": reason,
            "at": round(self.clock(), 9),
            "capacity": self.capacity,
            "events": self.snapshot(host),
        }
        self.dumps.append(document)
        if len(self.dumps) > MAX_DUMPS:
            del self.dumps[0]
            self.dumps_evicted += 1
        return document

    def reset(self) -> None:
        self._rings.clear()
        self.dumps = []
        self.dumps_evicted = 0

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"<FlightRecorder {state} hosts={len(self._rings)} "
                f"dumps={len(self.dumps)}>")
