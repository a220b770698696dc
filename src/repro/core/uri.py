"""Agent URIs: the Figure-2 EBNF grammar, parser, and matcher.

The paper's grammar (Figure 2)::

    tacomauri := [ "tacoma://" hostport "/" ] agpath
    hostport  := host [ ":" port ]
    agpath    := [ principal "/" ] agentid
    agentid   := name ":" instance | name | ":" instance

with the paper's own examples::

    tacoma://cl2.cs.uit.no:27017//vm_c:933821661
    tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron
    tacomaproject/:933821661

Note the first example's double slash: the principal part is present but
*empty*, meaning "unspecified".  Per section 3.2, when the remote part is
absent the firewall assumes a local target, and when the principal is
absent only two principals are considered valid: the local system, and the
principal of the sending agent.

Every component except the (name, instance) pair — of which at least one
must be given — is optional, so the same type doubles as an address
*pattern*: :meth:`AgentUri.matches_agent` implements the firewall's
partial-name matching.

An address is immutable, so what is derived from it is derived once and
kept on the instance: its text (``str``) and its local form
(:meth:`AgentUri.local`, which every arriving message's target goes
through).  Neither is a field: equality, hashing, ``repr``,
``dataclasses.replace``, copies and pickles never see them.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.core.errors import UriSyntaxError
from repro.core.identity import (
    AgentId,
    validate_agent_name,
    validate_instance,
    validate_principal,
)

SCHEME = "tacoma://"

_HOST_RE = re.compile(r"^[A-Za-z0-9]([A-Za-z0-9.-]*[A-Za-z0-9])?$")

#: Default firewall port, in the spirit of the paper's example port.
DEFAULT_PORT = 27017


@dataclass(frozen=True)
class AgentUri:
    """A (possibly partial) agent address."""

    host: Optional[str] = None
    port: Optional[int] = None
    principal: Optional[str] = None
    name: Optional[str] = None
    instance: Optional[str] = None

    def __post_init__(self) -> None:
        if self.host is not None and not _HOST_RE.match(self.host):
            raise UriSyntaxError(f"invalid host {self.host!r}")
        if self.port is not None:
            if self.host is None:
                raise UriSyntaxError("port given without host")
            if not 0 < self.port < 65536:
                raise UriSyntaxError(f"invalid port {self.port}")
        if self.principal is not None:
            validate_principal(self.principal)
        if self.name is not None:
            validate_agent_name(self.name)
        if self.instance is not None:
            object.__setattr__(
                self, "instance", validate_instance(self.instance))
        if self.name is None and self.instance is None:
            raise UriSyntaxError(
                "agent URI needs at least a name or an instance")

    # -- parsing ---------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "AgentUri":
        """Parse the Figure-2 grammar.

        An address is immutable, so a ``str`` is parsed once into an
        :class:`AgentUri` that every caller shares: the last 256 distinct
        texts are remembered.  A text that does not parse is not: it
        raises on every call.  Any other input, and any subclass, is
        parsed afresh.
        """
        if cls is AgentUri and type(text) is str:
            return _parse_text(text)
        return cls._parse(text)

    @classmethod
    def _parse(cls, text: str) -> "AgentUri":
        if not isinstance(text, str) or not text:
            raise UriSyntaxError("empty agent URI")
        rest = text
        host: Optional[str] = None
        port: Optional[int] = None
        if rest.startswith(SCHEME):
            rest = rest[len(SCHEME):]
            hostport, sep, rest = rest.partition("/")
            if not sep:
                raise UriSyntaxError(
                    f"missing '/' after host part in {text!r}")
            if not hostport:
                raise UriSyntaxError(f"empty host in {text!r}")
            host_str, colon, port_str = hostport.partition(":")
            host = host_str
            if colon:
                try:
                    port = int(port_str)
                except ValueError:
                    raise UriSyntaxError(
                        f"invalid port {port_str!r} in {text!r}") from None
        principal: Optional[str] = None
        if "/" in rest:
            principal_str, _slash, rest = rest.partition("/")
            # An empty principal segment (the "//" in the paper's first
            # example) means "unspecified".
            principal = principal_str or None
            if "/" in rest:
                raise UriSyntaxError(f"too many '/' segments in {text!r}")
        name, instance = cls._parse_agentid(rest, text)
        try:
            return cls(host=host, port=port, principal=principal,
                       name=name, instance=instance)
        except UriSyntaxError:
            raise
        except ValueError as exc:
            raise UriSyntaxError(f"invalid agent URI {text!r}: {exc}") from exc

    @staticmethod
    def _parse_agentid(part: str, whole: str
                       ) -> Tuple[Optional[str], Optional[str]]:
        if not part:
            raise UriSyntaxError(f"missing agent id in {whole!r}")
        name_str, colon, instance_str = part.partition(":")
        name = name_str or None
        if colon:
            if not instance_str:
                raise UriSyntaxError(f"empty instance in {whole!r}")
            instance: Optional[str] = instance_str
        else:
            instance = None
        return name, instance

    # -- formatting ---------------------------------------------------------------

    #: The text :meth:`__str__` built, kept on the instance after its
    #: first call.  Not a field (no annotation): ``==``, ``hash``,
    #: ``repr`` and ``dataclasses.replace`` never see it, and
    #: :meth:`__getstate__` leaves it out of the pickled state, so a
    #: pickle does not depend on whether the address was ever printed.
    _text = None
    #: The address :meth:`local` built, kept the same way as ``_text``
    #: (only on a remote address: a local one is its own local form).
    _local = None

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_text" in state or "_local" in state:
            state = dict(state)
            state.pop("_text", None)
            state.pop("_local", None)
        return state

    def __str__(self) -> str:
        text = self._text
        if text is not None:
            return text
        parts: List[str] = []
        if self.host is not None:
            parts.append(SCHEME)
            parts.append(self.host)
            if self.port is not None:
                parts.append(f":{self.port}")
            parts.append("/")
            # Keep the "//" form for remote URIs without a principal so
            # round-trips are exact (paper example 1).
            parts.append(f"{self.principal or ''}/")
        elif self.principal is not None:
            parts.append(f"{self.principal}/")
        if self.name is not None:
            parts.append(self.name)
        if self.instance is not None:
            parts.append(f":{self.instance}")
        text = "".join(parts)
        object.__setattr__(self, "_text", text)
        return text

    # -- derivation helpers ----------------------------------------------------------

    @property
    def is_remote(self) -> bool:
        return self.host is not None

    @property
    def agent_id(self) -> Optional[AgentId]:
        """The fully-specified identity, if both parts are present."""
        if self.name is not None and self.instance is not None:
            return AgentId(self.name, self.instance)
        return None

    def at(self, host: str, port: Optional[int] = None) -> "AgentUri":
        """This address pinned to a specific host."""
        return replace(self, host=host, port=port)

    def local(self) -> "AgentUri":
        """This address with the remote part stripped: built on the
        first call, then the same object on every call."""
        stripped = self._local
        if stripped is not None:
            return stripped
        if self.host is None:
            # Already local (a port needs a host), and immutable.
            return self
        # The remaining fields were validated when ``self`` was built.
        stripped = object.__new__(AgentUri)
        assign = object.__setattr__
        assign(stripped, "host", None)
        assign(stripped, "port", None)
        assign(stripped, "principal", self.principal)
        assign(stripped, "name", self.name)
        assign(stripped, "instance", self.instance)
        assign(self, "_local", stripped)
        return stripped

    @classmethod
    def for_agent(cls, name: str, instance: Optional[str] = None,
                  host: Optional[str] = None,
                  principal: Optional[str] = None) -> "AgentUri":
        return cls(host=host, principal=principal,
                   name=name, instance=instance)

    # -- matching (firewall name resolution, section 3.2) ------------------------------

    def matches_agent(self, name: str, instance: str,
                      principal: Optional[str] = None) -> bool:
        """Would this (possibly partial) URI select the given agent?

        Host/port are a routing concern and are not consulted here; the
        firewall strips them before matching locally.  A None component in
        the URI is a wildcard; the principal rule (None matches only
        system/sender principals) is the *policy* module's job, so here
        a None principal matches any.
        """
        if self.name is not None and self.name != name:
            return False
        if self.instance is not None and \
                self.instance != validate_instance(instance):
            return False
        if self.principal is not None and principal is not None and \
                self.principal != principal:
            return False
        return True

_parse_text = functools.lru_cache(maxsize=256)(AgentUri._parse)
