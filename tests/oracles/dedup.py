"""The dedup window as one set per peer: the oracle the product
:class:`~repro.firewall.dedup.DedupWindow` is tested against.

Transcribed from the window as it stood before its per-peer memory
became an ascending list: every accept past ``capacity`` rebuilds the
peer's set from the sequences above the floor.  Verdicts, counters,
``snapshot()``, ``to_durable()`` and the change records must match the
product's on every stream of observe, forget and restore.
"""

from typing import Dict, Optional, Set

from repro.firewall.changes import ChangeStream
from repro.firewall.dedup import DEFAULT_WINDOW_CAPACITY


class ReferenceDedupWindow:
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

    def restore_durable(self, state: dict) -> "ReferenceDedupWindow":
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
    def from_durable(cls, state: dict) -> "ReferenceDedupWindow":
        return cls().restore_durable(state)
