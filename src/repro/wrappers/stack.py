"""Wrapper stacks: composition, serialisation, and transport.

The stack is ordered **outermost first**: inbound messages flow
outermost → innermost (the system hands briefcases "to the wrapper
first"), outbound briefcases flow innermost → outermost.

Stacks are serialised into the WRAPPERS system folder — one element per
layer, each carrying the wrapper's code payload (usually ``py-ref``,
since wrappers are TAX system software present at every landing pad, but
by-value payloads work too) and its JSON config.  The destination VM
rebuilds the stack on launch, so wrappers genuinely travel with the
agent.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Iterable, List, Optional, Union

from repro.core.briefcase import Briefcase
from repro.core.element import Element
from repro.core.errors import BriefcaseError, VMError
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.firewall.message import Message
from repro.vm import loader
from repro.vm.sandbox import Sandbox
from repro.wrappers.base import AgentWrapper


@dataclass(frozen=True)
class WrapperSpec:
    """One layer to be instantiated at launch: code + config."""

    payload: loader.Payload
    config: dict

    @classmethod
    def by_ref(cls, wrapper_class, config: Optional[dict] = None
               ) -> "WrapperSpec":
        return cls(loader.pack_ref(wrapper_class), dict(config or {}))

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.payload.kind,
            "blob_b64": base64.b64encode(self.payload.blob).decode("ascii"),
            "config": self.config,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: Union[str, Element]) -> "WrapperSpec":
        """The spec :meth:`to_json` wrote (as text or as the carried
        element); anything else is a :class:`BriefcaseError`."""
        data = Element.of(text).as_object("kind", "blob_b64")
        try:
            payload = loader.Payload(
                data["kind"], base64.b64decode(data["blob_b64"]))
            return cls(payload, dict(data.get("config", {})))
        except (TypeError, ValueError) as exc:
            raise BriefcaseError(f"malformed wrapper spec: {exc}") from exc


def install_wrappers(briefcase: Briefcase,
                     specs: Iterable[WrapperSpec]) -> None:
    """Write the stack (outermost first) into the WRAPPERS folder."""
    briefcase.folder(wellknown.WRAPPERS).replace(
        [spec.to_json() for spec in specs])


def read_wrapper_specs(briefcase: Briefcase) -> List[WrapperSpec]:
    if not briefcase.has(wellknown.WRAPPERS):
        return []
    return [WrapperSpec.from_json(element)
            for element in briefcase.get(wellknown.WRAPPERS)]


def _materialize_factory(payload: loader.Payload, sandbox: Sandbox):
    if payload.kind == loader.KIND_REF:
        return loader.materialize_ref(payload)
    if payload.kind == loader.KIND_MARSHAL:
        return loader.materialize_marshal(payload, sandbox)
    if payload.kind == loader.KIND_SOURCE:
        return loader.materialize_source(payload, sandbox)
    raise VMError(f"wrapper payload kind {payload.kind!r} not launchable")


def build_stack(specs: Iterable[WrapperSpec],
                sandbox: Optional[Sandbox] = None) -> "WrapperStack":
    """Instantiate every layer; factories must yield AgentWrapper objects."""
    sandbox = sandbox or Sandbox()
    layers: List[AgentWrapper] = []
    for spec in specs:
        factory = _materialize_factory(spec.payload, sandbox)
        try:
            wrapper = factory(spec.config)
        except (KeyError, TypeError, ValueError) as exc:
            # A carried config the wrapper cannot use refuses the launch.
            raise VMError(f"wrapper config rejected: {exc}") from exc
        if not isinstance(wrapper, AgentWrapper) and not (
                hasattr(wrapper, "on_send") and hasattr(wrapper, "on_receive")):
            raise VMError(f"{factory!r} did not produce a wrapper")
        layers.append(wrapper)
    return WrapperStack(layers)


class WrapperStack:
    """An ordered stack of wrappers around one agent."""

    def __init__(self, layers: Optional[List[AgentWrapper]] = None):
        self.layers: List[AgentWrapper] = list(layers or [])

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    # -- lifecycle fan-out ---------------------------------------------------------

    def on_attach(self, ctx) -> None:
        for wrapper in self.layers:
            wrapper.on_attach(ctx)

    def on_arrive(self, ctx) -> None:
        for wrapper in self.layers:
            wrapper.on_arrive(ctx)

    def on_depart(self, ctx, target: AgentUri) -> None:
        for wrapper in self.layers:
            wrapper.on_depart(ctx, target)

    def on_detach(self, ctx) -> None:
        for wrapper in self.layers:
            wrapper.on_detach(ctx)

    # -- message paths -----------------------------------------------------------------

    def apply_send(self, ctx, target: AgentUri, briefcase: Briefcase):
        """Innermost → outermost; None when some layer swallowed it."""
        for wrapper in reversed(self.layers):
            result = wrapper.on_send(ctx, target, briefcase)
            if result is None:
                return None
            target, briefcase = result
        return target, briefcase

    def apply_receive(self, ctx, message: Message) -> Optional[Message]:
        """Outermost → innermost; None when some layer consumed it."""
        for wrapper in self.layers:
            message = wrapper.on_receive(ctx, message)
            if message is None:
                return None
        return message

    def describe(self) -> List[dict]:
        return [wrapper.describe() for wrapper in self.layers]
