"""Idempotent receive and exactly-once landing bookkeeping.

PR 2's retry/dead-letter machinery made delivery *at-least-once*: a
retry after a delivered-but-unacked attempt, a restart retransmit, or an
injected duplicate can all present the same message twice.  This module
holds the receiver-side state that turns that into *exactly-once
processing*:

- :class:`DedupWindow` — a bounded per-peer window over per-sender
  monotonic sequence numbers.  The sending firewall stamps each remote
  message once (``Message.seq`` / ``Message.seq_src``); retries reuse
  the stamp, so the receiver can tell "same message again" from "next
  message".  Conservation holds by construction:
  ``offered == accepted + duplicates + rejected``.
- :class:`LandingRegistry` — per-host memory of agent landings.  Every
  ``go``/``spawn`` transport carries a unique landing id; a duplicate
  launch request is answered with the *existing* agent's URI instead of
  a second clone, and a tombstoned id (the origin aborted, or the host
  crashed after launching) is refused outright.

Like the trace context, the sequence number and landing id ride the
:class:`~repro.firewall.message.Message` envelope in-simulation (zero
wire bytes — telemetry-off runs stay byte-identical) and travel in the
reserved wire-only folders :data:`~repro.core.wellknown.DELIVERY_SEQ` /
:data:`~repro.core.wellknown.LANDING_ID` on the raw-bytes path, which
``Firewall.receive_wire`` always strips.

Both structures are deliberately *not* reset by host crash: the firewall
object survives a :meth:`~repro.firewall.firewall.Firewall.crash`, so a
restarted host still refuses the duplicates and re-landings that the
outage produced.

On a *durable* host (PR 8) that in-process survival is no longer the
load-bearing mechanism: both structures announce every state transition
on their host's :class:`~repro.firewall.changes.ChangeStream`, where the
write-ahead journal subscribes.  Restart-time replay rebuilds the state
from storage alone via :meth:`to_durable` / :meth:`from_durable` plus
record re-application and restores it *into* the firewall's structures
(:meth:`restore_durable`) — the recovery path the real-transport backend
will need, where a process crash destroys the objects outright.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.core import wellknown
from repro.core.errors import BriefcaseError
from repro.firewall.changes import ChangeStream

#: Sequence numbers remembered per peer; anything older than
#: ``max_seen - capacity`` is conservatively rejected (we can no longer
#: prove it was not already delivered).
DEFAULT_WINDOW_CAPACITY = 512

#: Landing/tombstone records retained per host before FIFO trimming.
LANDING_CAPACITY = 4096


class DedupWindow:
    """Bounded per-peer duplicate suppression over monotonic sequences.

    ``observe(peer, seq)`` returns one of:

    - ``"accept"``    — first sight of this sequence; deliver it;
    - ``"duplicate"`` — seen before; acknowledge but do not re-deliver;
    - ``"reject"``    — below the window (or not a plausible sequence):
      delivery can no longer be proven fresh, so it is refused — the
      invariant is *never double-deliver*, even at the cost of a
      retransmit falling on the floor.
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW_CAPACITY,
                 changes: Optional[ChangeStream] = None):
        if capacity < 1:
            raise ValueError("dedup window capacity must be >= 1")
        self.capacity = capacity
        self.changes = changes if changes is not None else ChangeStream()
        self._max_seen: Dict[str, int] = {}
        self._seen: Dict[str, Set[int]] = {}
        self.offered = 0
        self.accepted = 0
        self.duplicates = 0
        self.rejected = 0

    def observe(self, peer: str, seq: int) -> str:
        verdict = self._observe(peer, seq)
        if self.changes.sinks:
            # Replay re-runs ``observe`` on the restored window, so the
            # event needs only the inputs — the verdict and every
            # counter are recomputed identically.
            self.changes.emit("dedup-observe", peer=peer, seq=seq)
        return verdict

    def _observe(self, peer: str, seq: int) -> str:
        self.offered += 1
        if not isinstance(seq, int) or seq < 1:
            self.rejected += 1
            return "reject"
        max_seen = self._max_seen.get(peer, 0)
        seen = self._seen.setdefault(peer, set())
        if seq in seen:
            self.duplicates += 1
            return "duplicate"
        if seq <= max_seen - self.capacity:
            self.rejected += 1
            return "reject"
        seen.add(seq)
        if seq > max_seen:
            self._max_seen[peer] = max_seen = seq
        floor = max_seen - self.capacity
        if floor > 0 and len(seen) > self.capacity:
            self._seen[peer] = {s for s in seen if s > floor}
        self.accepted += 1
        return "accept"

    def forget(self, peer: str, seq: int) -> None:
        """Roll back an accepted sequence whose *processing* failed.

        Delivery rejected by the governor, the queue, or policy did not
        happen — remembering its sequence would make the sender's retry
        look like a duplicate and silently lose the message.  The
        accepted count is reclassified as rejected, so conservation
        still holds.
        """
        seen = self._seen.get(peer)
        if seen is not None and seq in seen:
            seen.discard(seq)
            self.accepted -= 1
            self.rejected += 1
            if self.changes.sinks:
                self.changes.emit("dedup-forget", peer=peer, seq=seq)

    def window_size(self, peer: str) -> int:
        return len(self._seen.get(peer, ()))

    def conservation_holds(self) -> bool:
        return self.offered == self.accepted + self.duplicates + \
            self.rejected

    def snapshot(self) -> dict:
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "duplicates": self.duplicates,
            "rejected": self.rejected,
            "conservation_holds": self.conservation_holds(),
            "peers": {peer: {"max_seen": self._max_seen.get(peer, 0),
                             "window": len(seen)}
                      for peer, seen in sorted(self._seen.items())},
        }

    # -- durability ----------------------------------------------------------------

    def to_durable(self) -> dict:
        """The full window as canonical JSON-safe state (snapshots)."""
        return {
            "capacity": self.capacity,
            "offered": self.offered,
            "accepted": self.accepted,
            "duplicates": self.duplicates,
            "rejected": self.rejected,
            "max_seen": {peer: self._max_seen[peer]
                         for peer in sorted(self._max_seen)},
            "seen": {peer: sorted(seqs)
                     for peer, seqs in sorted(self._seen.items())},
        }

    def restore_durable(self, state: dict) -> "DedupWindow":
        """Replace this window's state with a :meth:`to_durable` image
        (restart-time replay restores into the firewall's own window, so
        nothing that holds it or subscribed to it is left behind)."""
        self.capacity = int(state.get("capacity", DEFAULT_WINDOW_CAPACITY))
        self.offered = int(state.get("offered", 0))
        self.accepted = int(state.get("accepted", 0))
        self.duplicates = int(state.get("duplicates", 0))
        self.rejected = int(state.get("rejected", 0))
        self._max_seen = {peer: int(value) for peer, value in
                          state.get("max_seen", {}).items()}
        self._seen = {peer: {int(s) for s in seqs} for peer, seqs in
                      state.get("seen", {}).items()}
        return self

    @classmethod
    def from_durable(cls, state: dict) -> "DedupWindow":
        return cls().restore_durable(state)


class LandingRegistry:
    """Exactly-once landing state for one host's VMs.

    A landing id moves through ``pending`` (launch in progress) to
    either ``launched`` (remembering the agent URI for idempotent
    re-acks) or ``tombstoned`` (the landing must never run here:
    origin-side abort, or a crash destroyed the launched instance).
    """

    def __init__(self, capacity: int = LANDING_CAPACITY,
                 changes: Optional[ChangeStream] = None):
        self.capacity = capacity
        self.changes = changes if changes is not None else ChangeStream()
        self._pending: Set[str] = set()
        self._launched: Dict[str, str] = {}
        self._tombstones: Dict[str, str] = {}
        self.launches = 0
        self.duplicate_landings = 0
        self.tombstone_refusals = 0
        self.aborts = 0
        self.evicted = 0

    def acquire(self, landing_id: str) -> Tuple[str, Optional[str]]:
        """Claim a landing slot; returns ``(state, info)``.

        ``("new", None)`` means the caller now holds the pending slot
        and must finish with :meth:`record_launch` or :meth:`release`.
        ``("launched", uri)`` / ``("tombstoned", reason)`` report an
        already-decided landing; ``("pending", None)`` asks the caller
        to wait for the in-flight launch to resolve.
        """
        if landing_id in self._tombstones:
            self.tombstone_refusals += 1
            if self.changes.sinks:
                # Decided-landing observations are announced so the
                # suppression counters survive replay (the verdict is
                # recomputed by re-running ``acquire``).
                self.changes.emit("landing-observe", id=landing_id)
            return "tombstoned", self._tombstones[landing_id]
        if landing_id in self._launched:
            self.duplicate_landings += 1
            if self.changes.sinks:
                self.changes.emit("landing-observe", id=landing_id)
            return "launched", self._launched[landing_id]
        if landing_id in self._pending:
            return "pending", None
        self._pending.add(landing_id)
        return "new", None

    def release(self, landing_id: str) -> None:
        """Launch failed: free the slot so a retry may try again."""
        self._pending.discard(landing_id)
        if self.changes.sinks:
            self.changes.emit("landing-release", id=landing_id)

    def record_launch(self, landing_id: str, agent_uri: str) -> None:
        self._pending.discard(landing_id)
        self._launched[landing_id] = agent_uri
        self.launches += 1
        self._trim(self._launched)
        if self.changes.sinks:
            self.changes.emit("landing-launch", id=landing_id,
                              uri=agent_uri)

    def tombstone(self, landing_id: str,
                  reason: str = "aborted") -> Optional[str]:
        """Forbid (future) execution of ``landing_id`` on this host.

        Returns the launched agent URI if that landing already ran here
        (the caller should kill the instance), else None.
        """
        self.aborts += 1
        self._pending.discard(landing_id)
        uri = self._launched.pop(landing_id, None)
        self._tombstones[landing_id] = reason
        self._trim(self._tombstones)
        if self.changes.sinks:
            self.changes.emit("landing-tombstone", id=landing_id,
                              reason=reason)
        return uri

    def forget_launch(self, landing_id: str) -> None:
        """Durability-API transition: drop a landing from the launched
        table *without* tombstoning it, so journal replay can re-land
        the same id when it resurrects the instance that crashed."""
        self._launched.pop(landing_id, None)
        if self.changes.sinks:
            self.changes.emit("landing-forget", id=landing_id)

    def crash_all(self, reason: str = "host-crash") -> int:
        """Host crash: every launched/pending landing becomes a
        tombstone, so a retried landing after restart is refused rather
        than silently resurrecting a twin."""
        converted = 0
        for landing_id in list(self._launched):
            self._launched.pop(landing_id)
            self._tombstones[landing_id] = reason
            converted += 1
        for landing_id in list(self._pending):
            self._pending.discard(landing_id)
            self._tombstones[landing_id] = reason
            converted += 1
        self._trim(self._tombstones)
        return converted

    def status(self, landing_id: str) -> str:
        if landing_id in self._tombstones:
            return "tombstoned"
        if landing_id in self._launched:
            return "launched"
        if landing_id in self._pending:
            return "pending"
        return "unknown"

    def _trim(self, table: Dict[str, str]) -> None:
        while len(table) > self.capacity:
            table.pop(next(iter(table)))
            self.evicted += 1

    def snapshot(self) -> dict:
        return {
            "launches": self.launches,
            "duplicate_landings": self.duplicate_landings,
            "tombstone_refusals": self.tombstone_refusals,
            "aborts": self.aborts,
            "evicted": self.evicted,
            "launched_now": len(self._launched),
            "tombstones_now": len(self._tombstones),
            "pending_now": len(self._pending),
        }

    # -- durability ----------------------------------------------------------------

    def to_durable(self) -> dict:
        """Canonical JSON-safe state for snapshots.

        The pending set is deliberately volatile: a launch that was in
        flight when the snapshot (or crash) happened is resolved by the
        origin's retry, and persisting it would leave the retry waiting
        forever on a slot nobody holds.
        """
        return {
            "capacity": self.capacity,
            "launches": self.launches,
            "duplicate_landings": self.duplicate_landings,
            "tombstone_refusals": self.tombstone_refusals,
            "aborts": self.aborts,
            "evicted": self.evicted,
            "launched": {lid: self._launched[lid]
                         for lid in sorted(self._launched)},
            "tombstones": {lid: self._tombstones[lid]
                           for lid in sorted(self._tombstones)},
        }

    def restore_durable(self, state: dict) -> "LandingRegistry":
        """Replace this registry's state with a :meth:`to_durable`
        image; the volatile pending set starts empty."""
        self.capacity = int(state.get("capacity", LANDING_CAPACITY))
        self._pending = set()
        self.launches = int(state.get("launches", 0))
        self.duplicate_landings = int(state.get("duplicate_landings", 0))
        self.tombstone_refusals = int(state.get("tombstone_refusals", 0))
        self.aborts = int(state.get("aborts", 0))
        self.evicted = int(state.get("evicted", 0))
        self._launched = dict(state.get("launched", {}))
        self._tombstones = dict(state.get("tombstones", {}))
        return self

    @classmethod
    def from_durable(cls, state: dict) -> "LandingRegistry":
        return cls().restore_durable(state)


def install_delivery_state(owner,
                           changes: Optional[ChangeStream] = None) -> None:
    """Bind fresh idempotent-receive state onto *owner*, announcing on
    ``changes`` (a firewall's stream; a replay image passes none).

    The dedup window and landing registry are journaled structures: a
    rebound one has lost its subscribers, so the next replay would
    resurrect the past (DUR001).  They are bound exactly once, here, by
    the module that owns them; restart-time replay restores *into* them.
    """
    owner.dedup = DedupWindow(changes=changes)
    owner.landings = LandingRegistry(changes=changes)


# -- wire-only folder carriers ----------------------------------------------


def inject_seq(briefcase, seq_src: Optional[str],
               seq: Optional[int]) -> None:
    """Write the sequence stamp into the reserved folder (pre-encode)."""
    if seq is None or not seq_src:
        return
    briefcase.drop(wellknown.DELIVERY_SEQ)
    briefcase.put(wellknown.DELIVERY_SEQ, f"{seq} {seq_src}")


def extract_seq(briefcase) -> Tuple[Optional[str], Optional[int]]:
    """Pop the sequence folder off a just-decoded briefcase.

    Always strips the folder when present; malformed contents (a hostile
    wire peer) are treated as "no stamp" rather than crashing.
    """
    if not briefcase.has(wellknown.DELIVERY_SEQ):
        return None, None
    try:
        text = briefcase.get_text(wellknown.DELIVERY_SEQ)
    except BriefcaseError:
        # Corrupted in flight into non-UTF8: no stamp.
        text = None
    briefcase.drop(wellknown.DELIVERY_SEQ)
    if not text:
        return None, None
    parts = text.split(" ", 1)
    if len(parts) != 2 or not parts[1]:
        return None, None
    try:
        seq = int(parts[0])
    except ValueError:
        return None, None
    return parts[1], seq


def inject_landing(briefcase, landing_id: Optional[str]) -> None:
    if landing_id is None:
        return
    briefcase.drop(wellknown.LANDING_ID)
    briefcase.put(wellknown.LANDING_ID, landing_id)


def extract_landing(briefcase) -> Optional[str]:
    if not briefcase.has(wellknown.LANDING_ID):
        return None
    try:
        landing_id = briefcase.get_text(wellknown.LANDING_ID)
    except BriefcaseError:
        landing_id = None
    briefcase.drop(wellknown.LANDING_ID)
    return landing_id or None
