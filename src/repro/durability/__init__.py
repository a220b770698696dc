"""Crash-durable host storage: virtual disks, write-ahead journals,
replay recovery, and the system-wide agent-conservation auditor.

The firewall object happens to survive :meth:`Firewall.crash` only
because this is a simulation; on the ROADMAP's real-transport backend a
process crash destroys it.  This package makes the durable subset of a
host's delivery state — resident agents, dedup windows, landing
registry, dead-letter ledger — reconstructible from storage instead of
from in-process object identity:

- :mod:`repro.durability.store` — a deterministic per-host virtual
  disk with fsync barriers in virtual time and seeded crash faults;
- :mod:`repro.durability.journal` — a length+CRC framed write-ahead
  journal with periodic snapshots and segment compaction;
- :mod:`repro.durability.recovery` — the restart-time replay protocol
  (:class:`HostDurability`) that folds the journal back into live
  firewall state and relaunches resident agents;
- :mod:`repro.durability.conservation` — the
  :class:`ConservationAuditor` asserting that every agent ever spawned
  ends in exactly one terminal bucket.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".conservation": "ConservationAuditor",
    ".recovery": "HostDurability",
    ".journal": "HostJournal",
    ".store": "VirtualDisk",
})
