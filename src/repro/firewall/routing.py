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

A name-only address is the common case (a booted host registers 11
service agents and VMs by name), so the registry keeps each name's
registrations in a list of their own: resolving one reads that list,
never the host's other registrations.  A firewall asks
:meth:`Registry.matches` and parks the message when the list it gets is
empty; nothing on that path raises.  ``tests/oracles/routing.py`` holds
the scan over every registration that this replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.errors import TaxError
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
        """Un-pause and deliver the backlog; returns how many of its
        deliveries were refused or raised (each is dropped, and the rest
        still go)."""
        self.paused = False
        backlog, self._paused_backlog = self._paused_backlog, []
        failed = 0
        for message in backlog:
            try:
                delivered = self.deliver_fn(message)
            except TaxError:
                delivered = False
            if not delivered:
                failed += 1
        return failed

    def uri(self, host: Optional[str] = None) -> AgentUri:
        return AgentUri(host=host, principal=self.principal,
                        name=self.name, instance=self.instance)


class Registry:
    """All agents currently registered at one firewall.

    Two indexes over the same registrations: by instance (unique, the
    key an instance-given address looks up) and by name, each name's
    list in sequence order (what a name-only address reads, so its cost
    is the registrations of that name, not of the host).
    """

    def __init__(self):
        self._by_instance: Dict[str, Registration] = {}
        self._by_name: Dict[str, List[Registration]] = {}
        self._sequence = 0

    def add(self, registration: Registration) -> Registration:
        key = registration.instance
        if key in self._by_instance:
            raise ValueError(f"instance {key!r} already registered")
        self._sequence += 1
        registration.sequence = self._sequence
        self._by_instance[key] = registration
        name = registration.agent_id.name
        named = self._by_name.get(name)
        if named is None:
            self._by_name[name] = [registration]
        else:
            named.append(registration)
        return registration

    def remove(self, agent_id: AgentId) -> Optional[Registration]:
        """Unregister; the registration drops its delivery closure and
        its process.

        Nothing delivers to or interrupts a registration outside the
        registry, and the closure (over the agent's context, which holds
        the registration) or a system agent's residency would otherwise
        keep the two in a reference cycle.
        """
        registration = self._by_instance.pop(agent_id.instance, None)
        if registration is not None:
            name = registration.agent_id.name
            named = self._by_name[name]
            # By identity: registrations compare by value.
            for index, other in enumerate(named):
                if other is registration:
                    del named[index]
                    break
            if not named:
                del self._by_name[name]
            registration.deliver_fn = _departed
            registration.process = None
        return registration

    def _remove_all(self) -> None:
        """:meth:`remove` every registration (a world being closed)."""
        registrations, self._by_instance = self._by_instance, {}
        self._by_name = {}
        for registration in registrations.values():
            registration.deliver_fn = _departed
            registration.process = None

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
        """Registrations selected by a (possibly partial) local address,
        oldest first.

        :meth:`AgentUri.matches_agent` plus the two-valid-principals
        rule, with the target read once: a given instance is a key
        lookup, a name only is the list of that name, and each candidate
        then costs one comparison of its principal.
        """
        name = target.name
        principal = target.principal
        if target.instance is not None:
            registration = self._by_instance.get(target.instance)
            if registration is None or (
                    name is not None and registration.agent_id.name != name):
                return []
            candidates: Iterable[Registration] = (registration,)
        else:
            # ``add`` appends and ``remove`` keeps the order, so each
            # name's list is in sequence order.  An address gives a name
            # or an instance (``AgentUri`` refuses an address with
            # neither).
            candidates = self._by_name.get(name, ())
        # The two-valid-principals rule, for a target that names none.
        valid = (SYSTEM_PRINCIPAL,) if sender_principal is None \
            else (SYSTEM_PRINCIPAL, sender_principal)
        found = []
        for registration in candidates:
            owner = registration.principal
            if principal is None:
                if owner not in valid:
                    continue
            elif owner is not None and owner != principal:
                continue
            found.append(registration)
        return found
