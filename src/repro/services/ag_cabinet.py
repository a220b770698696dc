"""ag_cabinet: persistent, per-principal folder storage (ag_ccabinet).

A cabinet lets an itinerant agent leave state at a site and pick it up
on a later visit (or let a successor instance pick it up) — persistence
across agent lifetimes, namespaced by principal so agents cannot read
each other's drawers.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core import codec
from repro.core.briefcase import Briefcase
from repro.core.errors import ServiceError
from repro.core import wellknown
from repro.firewall.message import Message
from repro.services.base import ServiceAgent

#: CPU per cabinet op.
CABINET_OP_SECONDS = 0.0003


class AgCabinet(ServiceAgent):
    """The persistent-state service."""

    name = "ag_cabinet"

    def __init__(self, node):
        super().__init__(node)
        #: (principal, drawer) → stored briefcase snapshot.
        self._drawers: Dict[Tuple[str, str], Briefcase] = {}

    def _key(self, message: Message) -> Tuple[str, str]:
        drawer = message.briefcase.get_text("DRAWER")
        if not drawer:
            raise ServiceError("cabinet request needs a DRAWER folder")
        return (message.sender.principal, drawer)

    def bytes_for_principal(self, principal: str) -> int:
        """Encoded bytes this principal has stored across its drawers."""
        return sum(codec.encoded_size(stored)
                   for (p, _), stored in self._drawers.items()
                   if p == principal)

    def op_put(self, message: Message):
        """Store every non-system folder of the request under the drawer.

        Storage is governed: the encoded size of everything a principal
        has in its drawers (counting this put, discounting the drawer it
        replaces) must fit its ``max_cabinet_bytes`` quota — the
        transient rejection travels back as the service's error reply.
        """
        key = self._key(message)
        yield from self.node.host.compute(CABINET_OP_SECONDS)
        stored = Briefcase()
        # System folders (CODE, WRAPPERS, ...) are stored too: checkpoints
        # must be relaunchable briefcases.
        skip = {wellknown.OP, wellknown.REPLY_TO, wellknown.MEET_TOKEN,
                wellknown.STATUS, "DRAWER"}
        for folder in message.briefcase.snapshot():
            if folder.name not in skip:
                stored.folder(folder.name).push_all(folder)
        principal = key[0]
        replaced = self._drawers.get(key)
        held = self.bytes_for_principal(principal) - \
            (codec.encoded_size(replaced) if replaced is not None else 0)
        self.node.firewall.governor.admit_cabinet(
            principal, held, codec.encoded_size(stored))
        self._drawers[key] = stored
        changes = self.node.firewall.changes
        if changes.sinks:
            # On a durable host a checkpoint blob is a journal record
            # too: the cabinet drawer models disk, and the journal is
            # the disk's crash-consistent ledger.
            changes.emit("checkpoint", principal=principal, drawer=key[1],
                         briefcase=stored)
        return Briefcase()

    def op_get(self, message: Message):
        key = self._key(message)
        yield from self.node.host.compute(CABINET_OP_SECONDS)
        stored = self._drawers.get(key)
        if stored is None:
            raise ServiceError(f"no drawer {key[1]!r} for {key[0]!r}")
        response = stored.snapshot()
        return response

    def op_drop(self, message: Message):
        key = self._key(message)
        yield from self.node.host.compute(CABINET_OP_SECONDS)
        existed = self._drawers.pop(key, None) is not None
        response = Briefcase()
        response.put(wellknown.RESULTS, {"dropped": existed})
        return response

    def op_list(self, message: Message):
        principal = message.sender.principal
        yield from self.node.host.compute(CABINET_OP_SECONDS)
        drawers = sorted(d for (p, d) in self._drawers if p == principal)
        response = Briefcase()
        response.put(wellknown.RESULTS, {"drawers": drawers})
        return response
