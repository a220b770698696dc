"""Restart-time replay: folding the journal back into live state.

:class:`HostDurability` owns one host's disk + journal and subscribes
to the firewall's change stream (:mod:`repro.firewall.changes`): every
announced change whose kind the journal owns becomes one record.  On
crash it suspends journaling (crash-time bookkeeping must not look
durable) and applies the seeded storage damage; on restart it replays
the active segment, rebuilds the durable state image, restores it into
the firewall's structures, and relaunches every resident agent whose
fate is unambiguous.

The fold (:func:`fold_records`, and :func:`replay_image` which closes it
with the crash boundary that triggered the replay) is a pure function
of the record list — tests exercise it directly — and understands the
full record taxonomy, which is also the change stream's schema:

==================  ============================================================
record              replay meaning
==================  ============================================================
``snapshot``        seed the image from a full durable state (first record
                    of a compacted segment)
``dedup-observe``   re-run the window verdict (same inputs, same counters)
``dedup-forget``    roll back an effective acceptance
``landing-*``       re-apply a landing transition (observe / launch /
                    tombstone / release / forget)
``queue-park``      a transport was parked (carries the full message)
``queue-reject``    an offer bounced off a full queue
``queue-claim``     an agent claimed a parked transport
``queue-dead-letter``  a park expired or was evicted into the ledger
``dead-letter-take``   a dead letter left the ledger for retransmission
``dead-letter-evict``  the ledger trimmed its oldest entry
``agent-arrive``    an agent became resident (carries its cleaned briefcase)
``agent-depart``    a resident left deliberately (moved / finished / killed)
``depart-intent``   a resident began a ``go`` (its fate is ambiguous until
                    ``agent-depart`` or ``depart-failed``)
``depart-failed``   the hop failed; the resident stayed put
``relaunch-intent`` recovery is about to resurrect a resident; the next
                    arrival on this landing supersedes the old instance
``checkpoint``      a cabinet checkpoint blob was stored (counted only)
``restart``         a crash boundary: open parks become host-crash dead
                    letters, departing residents become ambiguous
==================  ============================================================

The ambiguity rule is the twin-safety argument: a resident with an
unresolved ``depart-intent`` may already be running on the destination
host, so replay refuses to resurrect it — the exactly-once machinery
(landing tombstones, origin retries, rear guards) owns that case.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.uri import AgentUri
from repro.durability.journal import (DEFAULT_SNAPSHOT_INTERVAL,
                                      HostJournal, decode_briefcase_blob,
                                      encode_briefcase_blob)
from repro.durability.store import VirtualDisk
from repro.firewall.dedup import (DedupWindow, LandingRegistry,
                                  install_delivery_state)
from repro.firewall.message import Message, SenderInfo
from repro.firewall.msgqueue import DeadLetter

#: Queue counters that are part of the durable image (the keys of
#: ``PendingQueue.accounting`` that survive a crash).
QUEUE_COUNTERS = ("offered", "accepted", "rejected", "claimed", "expired",
                  "crashed", "evicted", "dead_letter_evictions")

#: Change kinds that move the resident table (:meth:`ResidentTable.apply`).
RESIDENT_KINDS = frozenset({"agent-arrive", "agent-depart", "depart-intent",
                            "depart-failed", "relaunch-intent"})

#: Change kinds the journal owns: one record each, the table above minus
#: ``snapshot`` and ``restart``, which the journal writes for itself.
#: Anything else heard on the stream is somebody else's.
JOURNAL_KINDS = RESIDENT_KINDS | {
    "dedup-observe", "dedup-forget", "landing-observe", "landing-launch",
    "landing-tombstone", "landing-release", "landing-forget", "queue-park",
    "queue-reject", "queue-claim", "queue-dead-letter", "dead-letter-take",
    "dead-letter-evict", "checkpoint"}


def message_to_durable(message: Message) -> Dict[str, Any]:
    """Flatten a message envelope + briefcase into journal fields."""
    sender = message.sender
    return {
        "target": str(message.target),
        "principal": sender.principal,
        "sender_host": sender.host,
        "sender_uri": str(sender.uri) if sender.uri else None,
        "authenticated": bool(sender.authenticated),
        "queue_timeout": message.queue_timeout,
        "hops": message.hops,
        "priority": message.priority,
        "seq": message.seq,
        "seq_src": message.seq_src,
        "landing": message.landing_id,
        "blob": encode_briefcase_blob(message.briefcase),
    }


def message_from_durable(rec: Dict[str, Any]) -> Message:
    """Rebuild a live message from its journal fields."""
    uri = rec.get("sender_uri")
    sender = SenderInfo(
        principal=rec["principal"], host=rec["sender_host"],
        uri=AgentUri.parse(uri) if uri else None,
        authenticated=bool(rec.get("authenticated")))
    return Message(
        target=AgentUri.parse(rec["target"]),
        briefcase=decode_briefcase_blob(rec["blob"]),
        sender=sender,
        queue_timeout=rec.get("queue_timeout", 30.0),
        hops=rec.get("hops", 0),
        priority=rec.get("priority", 0),
        seq=rec.get("seq"),
        seq_src=rec.get("seq_src"),
        landing_id=rec.get("landing"))


class ResidentTable:
    """Who lives on this host, according to the journal.

    ``supersede`` maps a relaunch landing id to the instance it
    replaces: when the resurrected launch's ``agent-arrive`` lands, the
    old instance is retired so crash loops never accumulate twins.
    """

    def __init__(self) -> None:
        #: instance -> {name, principal, vm, landing, blob, departing}
        self.residents: Dict[str, Dict[str, Any]] = {}
        #: relaunch landing id -> superseded instance
        self.supersede: Dict[str, str] = {}

    def apply(self, kind: str, rec: Dict[str, Any]) -> None:
        """Move the table by one record of a :data:`RESIDENT_KINDS`
        kind — the only writer, live and at replay."""
        instance = rec["instance"]
        if kind == "agent-arrive":
            landing = rec.get("landing")
            if landing and landing in self.supersede:
                self.residents.pop(self.supersede.pop(landing), None)
            self.residents[instance] = {
                "name": rec["name"], "principal": rec["principal"],
                "vm": rec["vm"], "landing": landing, "blob": rec["blob"],
                "departing": None}
        elif kind == "agent-depart":
            self.residents.pop(instance, None)
        elif instance not in self.residents:
            return
        elif kind == "depart-intent":
            self.residents[instance]["departing"] = rec.get("landing")
        elif kind == "depart-failed":
            self.residents[instance]["departing"] = None
        elif kind == "relaunch-intent":
            self.supersede[rec["landing"]] = instance

    def restart(self) -> List[str]:
        """Apply a crash boundary: drop residents whose ``go`` was
        unresolved (their fate is ambiguous) and stale relaunch
        intents whose launches never completed.  Returns the dropped
        (ambiguous) instances, sorted."""
        ambiguous = sorted(
            instance for instance, info in self.residents.items()
            if info.get("departing"))
        for instance in ambiguous:
            self.residents.pop(instance, None)
        self.supersede.clear()
        return ambiguous

    def to_durable(self) -> Dict[str, Any]:
        return {
            "residents": {instance: dict(self.residents[instance])
                          for instance in sorted(self.residents)},
            "supersede": {landing: self.supersede[landing]
                          for landing in sorted(self.supersede)},
        }

    @classmethod
    def from_durable(cls, state: Dict[str, Any]) -> "ResidentTable":
        table = cls()
        for instance, info in state.get("residents", {}).items():
            table.residents[instance] = dict(info)
        table.supersede.update(state.get("supersede", {}))
        return table


class ReplayImage:
    """The durable state reconstructed by one journal fold."""

    #: Bound by :func:`install_delivery_state`, announcing to nobody.
    dedup: DedupWindow
    landings: LandingRegistry

    def __init__(self) -> None:
        install_delivery_state(self)
        self.table = ResidentTable()
        self.counters: Dict[str, int] = {key: 0 for key in QUEUE_COUNTERS}
        #: park id -> park record (message fields + timing), insertion
        #: ordered — parks still open at the crash.
        self.open_parks: Dict[int, Dict[str, Any]] = {}
        #: dead-letter records (message fields + died_at / reason).
        self.dead: List[Dict[str, Any]] = []
        self.park_seq = 1
        self.checkpoints = 0
        self.restarts = 0
        self.records = 0
        self.torn = False
        self.segment = ""
        self.ambiguous: List[str] = []

    def queue_counters(self) -> Dict[str, int]:
        return dict(self.counters)


def _cut(image: ReplayImage, t: float) -> None:
    """A crash boundary: every open park died with the host, and every
    mid-``go`` resident becomes ambiguous."""
    for rec in image.open_parks.values():
        dead = dict(rec)
        dead["died_at"] = t
        dead["reason"] = "host-crash"
        image.dead.append(dead)
        image.counters["crashed"] += 1
    image.open_parks.clear()
    image.ambiguous = image.table.restart()


def _seed(image: ReplayImage, state: Dict[str, Any]) -> None:
    image.dedup.restore_durable(state.get("dedup", {}))
    image.landings.restore_durable(state.get("landings", {}))
    image.table = ResidentTable.from_durable(state.get("residents", {}))
    queue = state.get("queue", {})
    for key in QUEUE_COUNTERS:
        image.counters[key] = int(queue.get("counters", {}).get(key, 0))
    image.park_seq = int(queue.get("park_seq", 1))
    for rec in queue.get("open", []):
        image.open_parks[int(rec["park"])] = dict(rec)
    image.dead = [dict(rec) for rec in queue.get("dead", [])]


def replay_image(records: List[Dict[str, Any]], torn: bool,
                 segment: str,
                 now: float) -> ReplayImage:
    """Fold journal records into the post-recovery state image: the
    fold, closed by the crash boundary that triggered this replay,
    applied at ``now``."""
    image = fold_records(records, torn, segment, now)
    _cut(image, now)
    return image


def fold_records(records: List[Dict[str, Any]], torn: bool,
                 segment: str,
                 now: float) -> ReplayImage:
    """The state the records describe, with no final crash boundary —
    what the live host holds the instant the last record was written.

    Pure: no kernel, no firewall — callers install the result.
    """
    image = ReplayImage()
    image.records = len(records)
    image.torn = torn
    image.segment = segment
    for rec in records:
        kind = rec.get("kind")
        if kind == "snapshot":
            _seed(image, rec.get("state", {}))
        elif kind == "dedup-observe":
            image.dedup.observe(rec["peer"], rec["seq"])
        elif kind == "dedup-forget":
            image.dedup.forget(rec["peer"], rec["seq"])
        elif kind == "landing-observe":
            state, _ = image.landings.acquire(rec["id"])
            if state == "new":
                # Live observes only happen for decided landings; an
                # unexpectedly-new one must not hold a pending slot.
                image.landings.release(rec["id"])
        elif kind == "landing-launch":
            image.landings.record_launch(rec["id"], rec.get("uri", ""))
        elif kind == "landing-tombstone":
            image.landings.tombstone(rec["id"], rec.get("reason", ""))
        elif kind == "landing-release":
            image.landings.release(rec["id"])
        elif kind == "landing-forget":
            image.landings.forget_launch(rec["id"])
        elif kind == "queue-park":
            park = int(rec["park"])
            entry = dict(rec)
            entry["enqueued_at"] = rec.get("t", now)
            image.open_parks[park] = entry
            image.counters["offered"] += 1
            image.counters["accepted"] += 1
            image.park_seq = max(image.park_seq, park + 1)
        elif kind == "queue-reject":
            image.counters["offered"] += 1
            image.counters["rejected"] += 1
        elif kind == "queue-claim":
            if image.open_parks.pop(int(rec["park"]), None) is not None:
                image.counters["claimed"] += 1
        elif kind == "queue-dead-letter":
            parked = image.open_parks.pop(int(rec["park"]), None)
            if parked is not None:
                reason = rec.get("reason", "expired")
                dead = dict(parked)
                dead["died_at"] = rec.get("t", now)
                dead["reason"] = reason
                image.dead.append(dead)
                if reason == "expired":
                    image.counters["expired"] += 1
                elif reason == "evicted":
                    image.counters["evicted"] += 1
                else:
                    image.counters["crashed"] += 1
        elif kind == "dead-letter-take":
            park = int(rec["park"])
            image.dead = [d for d in image.dead
                          if int(d.get("park", -1)) != park]
        elif kind == "dead-letter-evict":
            park = int(rec["park"])
            image.dead = [d for d in image.dead
                          if int(d.get("park", -1)) != park]
            image.counters["dead_letter_evictions"] += 1
        elif kind in RESIDENT_KINDS:
            image.table.apply(kind, rec)
        elif kind == "checkpoint":
            image.checkpoints += 1
        elif kind == "restart":
            image.restarts += 1
            _cut(image, rec.get("t", now))
        # Unknown kinds are skipped: the journal format may grow.
    return image


class HostDurability:
    """One host's crash-durability controller.

    Owns the virtual disk and journal, mirrors the resident-agent
    table, and runs the crash / replay / resurrect lifecycle.  It
    hears the host through one subscription to the firewall's change
    stream; the firewall never learns it exists.  ``node.durability``
    is for the node's ``on_crash`` / ``on_restart`` — commands with an
    order, not announcements.
    """

    def __init__(self, node: Any, injector: Optional[Any] = None,
                 snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL
                 ) -> None:
        self.node = node
        host = node.host.name
        self.disk = VirtualDisk(node.kernel, host, injector=injector)
        self.journal = HostJournal(
            self.disk, host, telemetry=node.kernel.telemetry,
            snapshot_interval=snapshot_interval)
        self.journal.state_provider = self.durable_state
        self._mirror = ResidentTable()
        self.last_replay: Optional[Dict[str, Any]] = None
        self.resurrect_skipped = 0
        node.durability = self
        node.firewall.changes.subscribe(self._on_change)

    # -- the durable state (snapshot source) ---------------------------------------

    def durable_state(self) -> Dict[str, Any]:
        firewall = self.node.firewall
        queue = firewall.pending
        accounting = queue.accounting()
        open_parks = []
        for entry in queue.parked_entries():
            rec = message_to_durable(entry.message)
            rec.update(park=entry.park_id, enqueued_at=entry.enqueued_at,
                       expires_at=entry.expires_at,
                       retransmits=entry.retransmits)
            open_parks.append(rec)
        dead = []
        for letter in queue.dead_letters:
            rec = message_to_durable(letter.message)
            rec.update(park=letter.park_id, enqueued_at=letter.enqueued_at,
                       died_at=letter.died_at, reason=letter.reason,
                       retransmits=letter.retransmits)
            dead.append(rec)
        return {
            "dedup": firewall.dedup.to_durable(),
            "landings": firewall.landings.to_durable(),
            "queue": {
                "counters": {key: accounting[key]
                             for key in QUEUE_COUNTERS},
                "park_seq": queue.park_seq,
                "open": open_parks,
                "dead": dead,
            },
            "residents": self._mirror.to_durable(),
        }

    # -- the change-stream subscriber ----------------------------------------------

    def _on_change(self, kind: str, fields: Dict[str, Any]) -> None:
        """Journal one announced change.  The order is written once,
        here: flatten, move the resident mirror, and only then write
        the record — which may snapshot :meth:`durable_state`
        re-entrantly, so every piece of it must already be moved."""
        if self.journal.suspended or kind not in JOURNAL_KINDS:
            return
        if kind == "agent-depart" and \
                fields["instance"] not in self._mirror.residents:
            return
        rec = dict(fields)
        if "message" in rec:
            rec.update(message_to_durable(rec.pop("message")))
        if "briefcase" in rec:
            rec["blob"] = encode_briefcase_blob(rec.pop("briefcase"))
        if kind in RESIDENT_KINDS:
            self._mirror.apply(kind, rec)
        self.journal.record(kind, **rec)

    # -- the crash / restart lifecycle ---------------------------------------------

    def on_crash(self) -> Dict[str, int]:
        """The host is going down: freeze the journal first, so the
        crash-time bookkeeping (queue flushes, registration kills) is
        *not* journaled — it did not survive — then apply the seeded
        storage damage."""
        self.journal.suspend()
        return self.disk.crash()

    def on_restart(self, resurrect: bool = True) -> Dict[str, Any]:
        """Replay the journal and reinstall the durable state.

        Runs after the node re-registered its VMs and services and
        before dead letters are retransmitted.  Returns (and stores as
        ``last_replay``) a replay summary.
        """
        node = self.node
        firewall = node.firewall
        records, torn, segment = self.journal.replay()
        image = replay_image(records, torn, segment, node.kernel.now)
        # Restore into the firewall's own structures: whoever holds
        # or subscribed to them keeps a live object.
        firewall.dedup.restore_durable(image.dedup.to_durable())
        firewall.landings.restore_durable(image.landings.to_durable())
        dead_letters = []
        for rec in image.dead:
            dead_letters.append(DeadLetter(
                message=message_from_durable(rec),
                enqueued_at=rec.get("enqueued_at", 0.0),
                died_at=rec.get("died_at", 0.0),
                reason=rec.get("reason", "host-crash"),
                retransmits=rec.get("retransmits", 0),
                park_id=int(rec.get("park", 0))))
        firewall.pending.restore_durable(
            image.queue_counters(), dead_letters, image.park_seq)
        self._mirror = image.table
        self.journal.resume()
        residents = sorted(image.table.residents)
        self.journal.record(
            "restart", records=image.records, torn=image.torn,
            residents=len(residents), ambiguous=len(image.ambiguous))
        # Re-anchor on a fresh snapshot so the next replay starts from
        # this recovered state instead of re-folding history.
        self.journal.compact()
        # Host-crash dead letters reconstructed from the journal
        # account for migration transports that died here.
        for letter in dead_letters:
            if letter.message.landing_id:
                firewall.changes.emit("transport-lost",
                                      landing=letter.message.landing_id)
        restored = 0
        if resurrect:
            for instance in residents:
                if self._resurrect(instance,
                                   image.table.residents[instance]):
                    restored += 1
        telemetry = node.kernel.telemetry
        if telemetry.enabled:
            host = node.host.name
            telemetry.metrics.inc("recovery.journal_records_replayed",
                                  image.records, host=host)
            if restored:
                telemetry.metrics.inc("recovery.agents_restored",
                                      restored, host=host)
            if image.ambiguous:
                telemetry.metrics.inc("recovery.ambiguous_departures",
                                      len(image.ambiguous), host=host)
            telemetry.flight.record(
                host, "journal-replay", segment=segment,
                records=image.records, torn=image.torn,
                restored=restored, ambiguous=len(image.ambiguous),
                dead_letters=len(dead_letters))
        self.last_replay = {
            "segment": segment,
            "records": image.records,
            "torn": image.torn,
            "snapshots_seen": 1 if any(
                rec.get("kind") == "snapshot" for rec in records) else 0,
            "residents_restored": restored,
            "ambiguous_departures": image.ambiguous,
            "dead_letters_restored": len(dead_letters),
            "checkpoints_seen": image.checkpoints,
        }
        return self.last_replay

    def _resurrect(self, instance: str, info: Dict[str, Any]) -> bool:
        """Relaunch one journaled resident from its arrival blob."""
        node = self.node
        vm = node.vms.get(info.get("vm", ""))
        if vm is None:
            self.resurrect_skipped += 1
            return False
        landing = info.get("landing")
        if not landing:
            # Home-launched residents carried no landing id; mint one
            # so the supersede protocol still pairs intent to arrival.
            landing = f"replay:{instance}:r{self.journal.replays}"
        node.firewall.changes.emit("relaunch-intent", instance=instance,
                                   landing=landing)
        # Free the landing id: the original launch consumed it, and the
        # relaunch must land on it again rather than be deduplicated.
        node.firewall.landings.forget_launch(landing)
        briefcase = decode_briefcase_blob(info["blob"])
        sender = SenderInfo(
            principal=info["principal"], host=node.host.name,
            uri=None, authenticated=True)
        message = Message(
            target=AgentUri(host=node.host.name, name=info["name"]),
            briefcase=briefcase, sender=sender, landing_id=landing)
        node.kernel.spawn(vm.handle_launch_message(message),
                          name=f"replay-launch:{instance}")
        return True

    def _unlink(self) -> None:
        """The journal stops asking this controller for snapshots (for
        :meth:`~repro.system.cluster.TaxCluster.close`); disk and
        journal stay readable."""
        self.journal.state_provider = None

    def stats(self) -> Dict[str, Any]:
        return {
            "disk": self.disk.stats(),
            "journal": self.journal.stats(),
            "residents": len(self._mirror.residents),
            "resurrect_skipped": self.resurrect_skipped,
            "last_replay": self.last_replay,
        }
