"""Agent registry and partial-name resolution (paper section 3.2).

Virtual machines register the agents running inside them so the firewall
can locate them.  Resolution implements the paper's matching rules for
partially-specified addresses:

- name only → any instance of that name ("useful if one wishes to
  establish communication with a broader class of agents like service
  agents");
- instance only → that exact entity, whatever its name;
- principal left out → *"only two principals are considered as valid;
  the local system, or the principal of the mobile agent"* (the sender).

When several registrations match, the oldest wins — deterministic, and
the natural choice for service classes where any representative will do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.errors import AgentNotFoundError
from repro.core.identity import SYSTEM_PRINCIPAL, AgentId
from repro.core.uri import AgentUri
from repro.firewall.message import Message


def _departed(message: Message) -> bool:
    """The delivery of a registration no longer in its registry: drop."""
    return False


@dataclass
class Registration:
    """One agent known to the local firewall."""

    agent_id: AgentId
    principal: str
    vm_name: str
    deliver_fn: Callable[[Message], bool]
    start_time: float
    sequence: int = 0
    process: Optional[object] = None
    paused: bool = False
    meta: Dict[str, str] = field(default_factory=dict)
    _paused_backlog: List[Message] = field(default_factory=list)
    #: The remote-usable address, kept by ``Firewall.uri_for`` on first
    #: use: none of its five components changes while this lives.
    full_uri: Optional[AgentUri] = field(default=None, repr=False,
                                         compare=False)

    @property
    def name(self) -> str:
        return self.agent_id.name

    @property
    def instance(self) -> str:
        return self.agent_id.instance

    def deliver(self, message: Message) -> bool:
        if self.paused:
            self._paused_backlog.append(message)
            return True
        return self.deliver_fn(message)

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> int:
        """Un-pause and flush the backlog; returns messages flushed."""
        self.paused = False
        backlog, self._paused_backlog = self._paused_backlog, []
        for message in backlog:
            self.deliver_fn(message)
        return len(backlog)

    def uri(self, host: Optional[str] = None) -> AgentUri:
        return AgentUri(host=host, principal=self.principal,
                        name=self.name, instance=self.instance)


class Registry:
    """All agents currently registered at one firewall."""

    def __init__(self):
        self._by_instance: Dict[str, Registration] = {}
        self._sequence = 0

    def add(self, registration: Registration) -> Registration:
        key = registration.instance
        if key in self._by_instance:
            raise ValueError(f"instance {key!r} already registered")
        self._sequence += 1
        registration.sequence = self._sequence
        self._by_instance[key] = registration
        return registration

    def remove(self, agent_id: AgentId) -> Optional[Registration]:
        """Unregister; the registration drops its delivery closure.

        Nothing delivers to a registration outside the registry, and the
        closure (over the agent's context, which holds the registration)
        would otherwise keep the two in a reference cycle.
        """
        registration = self._by_instance.pop(agent_id.instance, None)
        if registration is not None:
            registration.deliver_fn = _departed
        return registration

    def _remove_all(self) -> None:
        """:meth:`remove` every registration (a world being closed)."""
        registrations, self._by_instance = self._by_instance, {}
        for registration in registrations.values():
            registration.deliver_fn = _departed

    def by_instance(self, instance: str) -> Optional[Registration]:
        return self._by_instance.get(instance.lower())

    def all(self) -> List[Registration]:
        return sorted(self._by_instance.values(), key=lambda r: r.sequence)

    def __len__(self) -> int:
        return len(self._by_instance)

    def resident_count(self, principal: str) -> int:
        """How many registrations ``principal`` owns here."""
        return sum(1 for registration in self._by_instance.values()
                   if registration.principal == principal)

    def matches(self, target: AgentUri,
                sender_principal: Optional[str]) -> List[Registration]:
        """Registrations selected by a (possibly partial) local address.

        :meth:`AgentUri.matches_agent` plus the two-valid-principals
        rule, with the target read once: a given instance is a key
        lookup, and each candidate costs one comparison per component.
        """
        name = target.name
        principal = target.principal
        if target.instance is not None:
            registration = self._by_instance.get(target.instance)
            candidates: Iterable[Registration] = \
                () if registration is None else (registration,)
        else:
            # Oldest first: ``add`` is the only writer of ``sequence``
            # and it appends, so insertion order is sequence order.
            candidates = self._by_instance.values()
        # The two-valid-principals rule, for a target that names none.
        valid = (SYSTEM_PRINCIPAL,) if sender_principal is None \
            else (SYSTEM_PRINCIPAL, sender_principal)
        found = []
        for registration in candidates:
            if name is not None and registration.agent_id.name != name:
                continue
            owner = registration.principal
            if principal is None:
                if owner not in valid:
                    continue
            elif owner is not None and owner != principal:
                continue
            found.append(registration)
        return found

    def resolve_one(self, target: AgentUri,
                    sender_principal: Optional[str]) -> Registration:
        """The single registration a message should go to (oldest match)."""
        found = self.matches(target, sender_principal)
        if not found:
            raise AgentNotFoundError(f"no agent matching {target}")
        return found[0]
