"""The host-change stream: one way for a host to announce a change.

The firewall is the one reference monitor every arrival, departure and
message of a host passes through, so it is also the one place the
host's delivery state changes.  Each :class:`~repro.firewall.firewall.
Firewall` owns one :class:`ChangeStream` and hands it to the structures
it brokers through (dedup window, landing registry, pending queue);
whoever wants to follow the host — its write-ahead journal, the
conservation auditor, a test's oracle — subscribes.  The emitting side
names no collaborator.

Two rules hold at every site:

- **Emit after the mutation is complete.**  A subscriber may read the
  host's whole state from inside the call (the journal snapshots
  re-entrantly), so an announcement made half-way freezes half a change.
- **Test before building.**  ``if changes.sinks: changes.emit(...)`` —
  a host nobody follows pays one truth test and builds no event; the
  unconditional call was measured at +1 % Python calls on the message
  hot path.

An event is a kind and its fields, no class per kind.  The kinds are
the journal's record kinds (the table in
:mod:`repro.durability.recovery` is the schema; ``message`` and
``briefcase`` fields travel as live objects and the journal flattens
them) plus three only the auditor hears: ``agent-spawn``,
``agent-crash`` and ``transport-lost``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List


class ChangeStream:
    """Subscribers to one host's state changes, in subscription order.

    A structure that belongs to no host (a replay image's, a unit
    test's) simply has a stream nobody subscribed to.
    """

    __slots__ = ("sinks",)

    def __init__(self) -> None:
        #: Empty means "nobody follows this host": the flag sites test.
        self.sinks: List[Callable[[str, Dict[str, Any]], None]] = []

    def subscribe(self,
                  sink: Callable[[str, Dict[str, Any]], None]) -> None:
        self.sinks.append(sink)

    def emit(self, kind: str, **fields: Any) -> None:
        for sink in self.sinks:
            sink(kind, fields)
