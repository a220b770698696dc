"""Principals and agent identifiers.

An agent is addressed by *host, port, principal, name, instance* (paper
section 3.2).  This module provides the name/instance and principal parts;
:mod:`repro.core.uri` composes them with the host part into full agent
URIs.

Instance numbers in the original system were Unix timestamps (e.g.
``933821661``).  In the simulation we need determinism, so each site owns
an :class:`InstanceAllocator` issuing unique hex strings derived from a
site ordinal and a counter.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import IdentityError

#: The site-local system principal (always trusted locally, like root).
SYSTEM_PRINCIPAL = "system"

#: Anonymous principal for unsigned agents.
ANONYMOUS_PRINCIPAL = "anonymous"

_NAME_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")
_INSTANCE_RE = re.compile(r"^[0-9a-fA-F]+$")
_PRINCIPAL_RE = re.compile(r"^[A-Za-z0-9_.-]+(@[A-Za-z0-9_.-]+)?$")


# Each validator below checks a given ``str`` once: its checker keeps
# the result for each of the last 1 024 distinct strings.  A string that
# fails is not kept (it raises on every call), and any other input — a
# ``str`` subclass, ``None``, a number, an unhashable list — goes to the
# checker's unremembered function, so it raises what it always raised.


@functools.lru_cache(maxsize=1024)
def _checked_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise IdentityError(f"invalid agent name {name!r}")
    return name


@functools.lru_cache(maxsize=1024)
def _checked_instance(instance: str) -> str:
    if not isinstance(instance, str) or not _INSTANCE_RE.match(instance):
        raise IdentityError(f"invalid instance {instance!r} (must be hex)")
    return instance.lower()


@functools.lru_cache(maxsize=1024)
def _checked_principal(principal: str) -> str:
    if not isinstance(principal, str) or not _PRINCIPAL_RE.match(principal):
        raise IdentityError(f"invalid principal {principal!r}")
    return principal


def validate_agent_name(name: str) -> str:
    """Check an agent name against the Figure-2 grammar (alphanumeric,
    extended with ``_ . -`` which the paper's own examples use)."""
    if type(name) is str:
        return _checked_name(name)
    return _checked_name.__wrapped__(name)


def validate_instance(instance: str) -> str:
    """Check an instance string (hex digits); returns it lowercased."""
    if type(instance) is str:
        return _checked_instance(instance)
    return _checked_instance.__wrapped__(instance)


def validate_principal(principal: str) -> str:
    """Check a principal name (``user`` or ``user@host``)."""
    if type(principal) is str:
        return _checked_principal(principal)
    return _checked_principal.__wrapped__(principal)


@dataclass(frozen=True)
class AgentId:
    """A fully-specified agent identity at one site: name + instance."""

    name: str
    instance: str

    def __post_init__(self) -> None:
        validate_agent_name(self.name)
        object.__setattr__(self, "instance", validate_instance(self.instance))

    def __str__(self) -> str:
        return f"{self.name}:{self.instance}"

    @classmethod
    def parse(cls, text: str) -> "AgentId":
        name, sep, instance = text.partition(":")
        if not sep or not name or not instance:
            raise IdentityError(
                f"agent id must be 'name:instance', got {text!r}")
        return cls(name, instance)


class InstanceAllocator:
    """Issues unique, deterministic instance strings for one site.

    The high bits carry the site ordinal so instances are globally unique
    across a simulated cluster, matching the paper's use of instances to
    "make sure one continues to communicate with the same entity".
    """

    def __init__(self, site_ordinal: int = 0) -> None:
        if site_ordinal < 0:
            raise ValueError("site_ordinal must be non-negative")
        self._site = site_ordinal
        self._counter = 0

    def next_instance(self) -> str:
        self._counter += 1
        return format((self._site << 32) | self._counter, "x")


@dataclass(frozen=True)
class Principal:
    """A named authority on whose behalf an agent runs."""

    name: str

    def __post_init__(self) -> None:
        validate_principal(self.name)

    @property
    def is_system(self) -> bool:
        return self.name == SYSTEM_PRINCIPAL

    def __str__(self) -> str:
        return self.name


def principal_name(value: Optional[object]) -> Optional[str]:
    """Coerce a Principal | str | None into a validated name or None."""
    if value is None:
        return None
    if isinstance(value, Principal):
        return value.name
    if isinstance(value, str):
        return validate_principal(value)
    raise IdentityError(f"not a principal: {value!r}")
