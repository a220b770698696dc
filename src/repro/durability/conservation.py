"""The system-wide agent-conservation auditor.

Mobility's safety claim is not just "no duplicates" (exactly-once, PR
7) — it is also "no silent losses".  The auditor watches every agent
instance the cluster ever spawns and asserts that each one ends in
exactly one terminal bucket:

- ``alive`` — still registered when the run ends;
- ``completed`` — ran to the end of its program (or was deliberately
  killed: a twin kill is a *decision*, not a loss);
- ``moved`` — handed off to a successor instance via ``go`` (the
  landing ack proves the successor exists);
- ``relaunched`` — crashed with its host and later resurrected, by
  journal replay or by a rear guard's checkpoint relaunch;
- ``dead_lettered`` — its migration transport died in a queue and is
  accounted for in a dead-letter ledger.

An instance stuck in ``crashed`` is a conservation violation: an agent
the system lost without a trace.  ``holds()`` is the boolean surfaced
as ``conservation.holds`` in the chaos / partition / crashtest
documents, and the crashtest CLI exits non-zero without it.

The auditor subscribes to every host's change stream
(:meth:`ConservationAuditor.follow`, called per node by
``cluster.enable_conservation()``); a cluster without one pays nothing.
Infrastructure registrations (the ``system`` principal: VMs, services,
drivers) are exempt — they are re-created by ``boot()``, not conserved.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.identity import SYSTEM_PRINCIPAL

#: Instance states.  ``crashed`` is the only non-terminal one.
ALIVE = "alive"
COMPLETED = "completed"
MOVED = "moved"
CRASHED = "crashed"
RELAUNCHED = "relaunched"
DEAD_LETTERED = "dead_lettered"


class _InstanceRecord:
    __slots__ = ("instance", "name", "principal", "host", "state",
                 "reason", "departing")

    def __init__(self, instance: str, name: str, principal: str,
                 host: str) -> None:
        self.instance = instance
        self.name = name
        self.principal = principal
        self.host = host
        self.state = ALIVE
        self.reason = ""
        #: Landing id of an in-flight ``go`` (set at depart intent,
        #: cleared when the hop fails and the agent stays put).
        self.departing: Optional[str] = None


class ConservationAuditor:
    """Every agent ever spawned ends in exactly one bucket."""

    def __init__(self) -> None:
        self._instances: Dict[str, _InstanceRecord] = {}

    def follow(self, firewall: Any) -> None:
        """Subscribe to one host's change stream."""
        host = firewall.host.name

        def heard(kind: str, fields: Dict[str, Any]) -> None:
            if kind == "agent-spawn":
                self.spawned(host, fields["instance"], fields["name"],
                             fields["principal"])
            elif kind == "agent-depart":
                self.ended(fields["instance"], fields["reason"])
            elif kind == "depart-intent":
                self.departing(fields["instance"], fields["landing"])
            elif kind == "depart-failed":
                self.depart_failed(fields["instance"])
            elif kind == "agent-crash":
                self.crashed(fields["instance"], host)
            elif kind == "transport-lost":
                self.transport_dead_lettered(fields["landing"])

        firewall.changes.subscribe(heard)

    # -- the transitions -----------------------------------------------------------

    def spawned(self, host: str, instance: str, name: str,
                principal: str) -> None:
        if principal == SYSTEM_PRINCIPAL:
            return
        self._instances[instance] = _InstanceRecord(
            instance, name, principal, host)
        # A fresh spawn of the same logical agent resolves the oldest
        # still-crashed instance: journal replay resurrects it with the
        # same name, and a rear guard's checkpoint relaunch recreates
        # it.  One spawn resolves at most one loss.
        for record in self._instances.values():
            if (record.state == CRASHED and record.instance != instance
                    and record.principal == principal
                    and record.name == name):
                record.state = RELAUNCHED
                break

    def ended(self, instance: str, reason: str = "finished") -> None:
        record = self._instances.get(instance)
        if record is None or record.state != ALIVE:
            return
        record.state = MOVED if reason == "moved" else COMPLETED
        record.reason = reason

    def departing(self, instance: str,
                  landing: Optional[str]) -> None:
        record = self._instances.get(instance)
        if record is not None and record.state == ALIVE:
            record.departing = landing

    def depart_failed(self, instance: str) -> None:
        record = self._instances.get(instance)
        if record is not None:
            record.departing = None

    def crashed(self, instance: str, host: str = "") -> None:
        record = self._instances.get(instance)
        if record is not None and record.state == ALIVE:
            record.state = CRASHED
            record.reason = "host-crash"

    def transport_dead_lettered(self, landing: Optional[str]) -> None:
        """A migration transport died in a queue: the crashed instance
        that was departing on this landing is accounted for."""
        if not landing:
            return
        for record in self._instances.values():
            if record.state == CRASHED and record.departing == landing:
                record.state = DEAD_LETTERED
                break

    # -- the verdict ---------------------------------------------------------------

    def holds(self) -> bool:
        return not any(record.state == CRASHED
                       for record in self._instances.values())

    def violations(self) -> List[Dict[str, str]]:
        return sorted(
            ({"instance": r.instance, "name": r.name,
              "principal": r.principal, "host": r.host}
             for r in self._instances.values() if r.state == CRASHED),
            key=lambda v: v["instance"])

    def report(self) -> Dict[str, object]:
        buckets: Dict[str, int] = {}
        for record in self._instances.values():
            buckets[record.state] = buckets.get(record.state, 0) + 1
        return {
            "agents": len(self._instances),
            "buckets": {state: buckets[state]
                        for state in sorted(buckets)},
            "violations": self.violations(),
            "holds": self.holds(),
        }
