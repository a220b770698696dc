"""The reference name resolution: ``Registry.matches`` as a scan.

:func:`reference_matches` is the body ``repro.firewall.routing.Registry
.matches`` had before the registry kept each name's registrations in a
list of their own: an instance-given target is a key lookup, and any
other target walks every registration on the host, oldest first, and
keeps those whose name and principal fit.  The product reads the
target name's list instead; the two must select the same registrations
in the same order.
"""

from typing import Iterable, List, Optional

from repro.core.identity import SYSTEM_PRINCIPAL
from repro.core.uri import AgentUri
from repro.firewall.routing import Registration, Registry


def reference_matches(registry: Registry, target: AgentUri,
                      sender_principal: Optional[str]
                      ) -> List[Registration]:
    """Registrations ``target`` selects, found by scanning them all."""
    name = target.name
    principal = target.principal
    if target.instance is not None:
        registration = registry.by_instance(target.instance)
        candidates: Iterable[Registration] = \
            () if registration is None else (registration,)
    else:
        candidates = registry.all()
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
