"""Code shipping: packing executable payloads into briefcases.

The paper's briefcases carry *"the transportable state of a mobile agent
(code, arguments, results)"*.  This module defines the payload kinds the
Python VMs understand and the pack/unpack machinery:

``py-ref``
    A module-path reference (``package.module:qualname``).  The code is
    *not* shipped — the destination must already have it installed.  Used
    for system/service agents and for wrappers that are part of the TAX
    distribution itself.

``py-marshal``
    A module shipped **by value**: the marshalled CPython code object
    and the name of its entry point.  This is the
    "compiled binary" of the Python world — opaque bytes that only a
    matching VM can execute — and the output format of the ag_cc
    compilation chain.

``py-source``
    Source text plus an entry-point name.  The Figure-3 flow: a
    ``vm_source`` agent arrives as source and is compiled on the landing
    pad via ag_cc/ag_exec before execution.

``binary``
    A list of per-architecture, per-principal **signed** ``py-marshal``
    blobs — what ``vm_bin`` and ``ag_exec`` consume: *"an agent may
    submit a list of binaries matching different architectures"*; the one
    matching the local machine is verified and executed.

Payload bytes are what travels in the CODE folder; their length is what
the network model charges, so shipping a 40 KB module really costs 40 KB
on the wire.
"""

from __future__ import annotations

import base64
import functools
import importlib
import io
import json
import marshal
import pickle
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.briefcase import Briefcase
from repro.core.element import Element
from repro.core.errors import BriefcaseError, UnsupportedPayloadError, VMError
from repro.core import wellknown
from repro.firewall.auth import KeyChain, Signature, TrustStore
from repro.vm.sandbox import Sandbox

KIND_REF = "py-ref"
KIND_MARSHAL = "py-marshal"
KIND_SOURCE = "py-source"
KIND_BINARY = "binary"
KIND_PICKLE = "py-pickle"

ALL_KINDS = (KIND_REF, KIND_MARSHAL, KIND_SOURCE, KIND_BINARY, KIND_PICKLE)

STYLE_MODULE = "module"


@dataclass(frozen=True)
class Payload:
    """A packed executable: its kind tag and opaque bytes."""

    kind: str
    blob: bytes

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise UnsupportedPayloadError(f"unknown payload kind {self.kind!r}")

    @property
    def size(self) -> int:
        return len(self.blob)


# -- packing -------------------------------------------------------------------------


def pack_ref(obj_or_path) -> Payload:
    """Pack a by-reference payload from a callable or ``module:qualname``."""
    if isinstance(obj_or_path, str):
        path = obj_or_path
        if ":" not in path:
            raise VMError(f"py-ref path needs 'module:qualname', got {path!r}")
    else:
        module = getattr(obj_or_path, "__module__", None)
        qualname = getattr(obj_or_path, "__qualname__", None)
        if not module or not qualname or "<locals>" in qualname:
            raise VMError(
                f"{obj_or_path!r} is not addressable by module path")
        path = f"{module}:{qualname}"
    blob = json.dumps({"path": path}).encode("utf-8")
    return Payload(KIND_REF, blob)


def pack_module_code(code: types.CodeType, entry: str) -> Payload:
    """Ship a compiled module: executed at the destination, then ``entry``
    is looked up in the resulting namespace.  (ag_cc's output format.)"""
    payload = {
        "style": STYLE_MODULE,
        "entry": entry,
        "code_b64": base64.b64encode(marshal.dumps(code)).decode("ascii"),
        "globals": {},
    }
    return Payload(KIND_MARSHAL, json.dumps(payload).encode("utf-8"))


def pack_source(source: str, entry: str,
                origin: str = "<shipped>") -> Payload:
    """Ship raw source text with a named entry point."""
    payload = {"source": source, "entry": entry, "origin": origin}
    return Payload(KIND_SOURCE, json.dumps(payload).encode("utf-8"))


#: Module prefixes a restricted unpickle may resolve classes from, by
#: default: the TAX distribution itself plus a few stdlib value types.
DEFAULT_PICKLE_ALLOWED = (
    "repro.", "builtins", "collections", "datetime", "decimal",
)


def pack_pickle(obj: Any) -> Payload:
    """Ship an *object agent* by pickling it.

    Pickle ships the instance state by value and the class by reference
    (module + qualname), so the destination must have the class
    installed — the classic stateful-agent model.  The destination VM
    unpickles through :class:`RestrictedUnpickler`, which refuses any
    class outside its module whitelist.
    """
    try:
        blob = pickle.dumps(obj, protocol=4)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise VMError(f"object cannot be pickled: {exc}") from exc
    return Payload(KIND_PICKLE, blob)


class RestrictedUnpickler(pickle.Unpickler):
    """An unpickler that only resolves whitelisted classes.

    This is the safety mechanism of ``vm_pickle``: hostile pickles
    naming ``os.system``, ``subprocess.*`` and the like are rejected at
    resolution time, before any object is constructed.
    """

    def __init__(self, data: bytes,
                 allowed_prefixes: Iterable[str] = DEFAULT_PICKLE_ALLOWED):
        super().__init__(io.BytesIO(data))
        self.allowed_prefixes = tuple(allowed_prefixes)

    def find_class(self, module: str, name: str):
        allowed = any(
            module == prefix.rstrip(".") or module.startswith(prefix)
            for prefix in self.allowed_prefixes)
        if not allowed:
            raise UnsupportedPayloadError(
                f"pickle references {module}.{name}, which is outside "
                f"the allowed modules {list(self.allowed_prefixes)}")
        return super().find_class(module, name)


def materialize_pickle(payload: Payload,
                       allowed_prefixes: Iterable[str] =
                       DEFAULT_PICKLE_ALLOWED) -> Any:
    """Reconstruct a pickled object agent under the class whitelist."""
    if payload.kind != KIND_PICKLE:
        raise UnsupportedPayloadError(
            f"expected {KIND_PICKLE}, got {payload.kind}")
    try:
        return RestrictedUnpickler(payload.blob, allowed_prefixes).load()
    except UnsupportedPayloadError:
        raise
    except Exception as exc:  # noqa: BLE001 - hostile pickle formats
        raise UnsupportedPayloadError(
            f"corrupt pickle payload: {exc}") from exc


def pack_binary_list(entries: Iterable[Tuple[str, Payload]],
                     keychain: KeyChain, principal: str) -> Payload:
    """Sign per-architecture payloads into a ``binary`` list."""
    binaries: List[Dict[str, str]] = []
    for arch, payload in entries:
        signature = keychain.sign(principal, payload.blob)
        binaries.append({
            "arch": arch,
            "kind": payload.kind,
            "blob_b64": base64.b64encode(payload.blob).decode("ascii"),
            "signature": signature.to_text(),
        })
    if not binaries:
        raise VMError("binary list needs at least one entry")
    return Payload(KIND_BINARY,
                   json.dumps({"binaries": binaries}).encode("utf-8"))


# -- briefcase integration ---------------------------------------------------------------


def install_payload(briefcase: Briefcase, payload: Payload,
                    agent_name: Optional[str] = None) -> None:
    """Write a payload into the CODE/CODE-KIND system folders."""
    briefcase.put(wellknown.CODE_KIND, payload.kind)
    briefcase.folder(wellknown.CODE).replace([payload.blob])
    if agent_name is not None:
        briefcase.put(wellknown.AGENT_NAME, agent_name)


def read_payload(briefcase: Briefcase) -> Payload:
    """Extract the payload carried by a briefcase."""
    kind = briefcase.get_text(wellknown.CODE_KIND)
    code = briefcase.get_first(wellknown.CODE)
    if kind is None or code is None:
        raise UnsupportedPayloadError(
            "briefcase carries no CODE/CODE-KIND payload")
    return Payload(kind, code.data)


# -- unpacking ------------------------------------------------------------------------------


def _parse_json(blob: bytes, kind: str) -> dict:
    try:
        return Element.of(blob).as_object()
    except BriefcaseError as exc:
        raise UnsupportedPayloadError(
            f"malformed {kind} payload") from exc


def materialize_ref(payload: Payload) -> Callable:
    """Resolve a by-reference payload to the installed object."""
    if payload.kind != KIND_REF:
        raise UnsupportedPayloadError(f"expected {KIND_REF}, got {payload.kind}")
    data = _parse_json(payload.blob, KIND_REF)
    module_name, _, qualname = data.get("path", "").partition(":")
    if not module_name or not qualname:
        raise UnsupportedPayloadError("py-ref payload missing path")
    try:
        obj = importlib.import_module(module_name)
    except ImportError as exc:
        raise UnsupportedPayloadError(
            f"referenced module {module_name!r} is not installed") from exc
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError as exc:
            raise UnsupportedPayloadError(
                f"{qualname!r} not found in {module_name!r}") from exc
    return obj


@functools.lru_cache(maxsize=8)
def _unpack_marshal(payload: Payload) -> Tuple[types.CodeType, Optional[str]]:
    """(code, entry) of a py-marshal payload.

    A pure function of an immutable payload, so each of the last few
    distinct payloads is unpacked once (a corrupt one is not
    remembered).  The payload comes from outside, so anything but what
    ag_cc emits — a module with no shipped globals — is refused.
    """
    data = _parse_json(payload.blob, KIND_MARSHAL)
    style = data.get("style")
    if style != STYLE_MODULE:
        raise UnsupportedPayloadError(f"unknown marshal style {style!r}")
    if data.get("globals"):
        raise UnsupportedPayloadError("a shipped module carries no globals")
    try:
        code = marshal.loads(base64.b64decode(data["code_b64"]))
    except (KeyError, ValueError, EOFError, TypeError) as exc:
        raise UnsupportedPayloadError("corrupt marshalled code") from exc
    return code, data.get("entry")


def materialize_marshal(payload: Payload,
                        sandbox: Optional[Sandbox] = None) -> Callable:
    """Run a shipped module in a fresh sandboxed namespace and return
    its entry point."""
    if payload.kind != KIND_MARSHAL:
        raise UnsupportedPayloadError(
            f"expected {KIND_MARSHAL}, got {payload.kind}")
    code, entry = _unpack_marshal(payload)
    namespace = (sandbox or Sandbox()).make_globals()
    exec(code, namespace)  # noqa: S102 - sandboxed namespace
    try:
        return namespace[entry]
    except KeyError as exc:
        raise UnsupportedPayloadError(
            f"entry {entry!r} not defined by shipped module") from exc


def parse_source(payload: Payload) -> "tuple[str, str, str]":
    """(source, entry, origin) of a py-source payload."""
    if payload.kind != KIND_SOURCE:
        raise UnsupportedPayloadError(
            f"expected {KIND_SOURCE}, got {payload.kind}")
    data = _parse_json(payload.blob, KIND_SOURCE)
    if "source" not in data or "entry" not in data:
        raise UnsupportedPayloadError("py-source payload missing fields")
    return data["source"], data["entry"], data.get("origin", "<shipped>")


@functools.lru_cache(maxsize=4)
def compile_source(payload: Payload) -> Payload:
    """The "compiler": py-source → py-marshal (module style).

    This is the function ag_exec runs on ag_cc's behalf in the Figure-3
    chain; the output is the opaque "binary" handed on to vm_bin.  A
    pure function of an immutable payload, so the last few results are
    remembered (a failed compilation is not): a program launched many
    times in one process — the Webbot, once per mobile crawl — is
    compiled once.
    """
    source, entry, origin = parse_source(payload)
    try:
        code = compile(source, f"<compiled {origin}>", "exec")
    except SyntaxError as exc:
        raise VMError(f"compilation failed: {exc}") from exc
    return pack_module_code(code, entry)


def materialize_source(payload: Payload,
                       sandbox: Optional[Sandbox] = None) -> Callable:
    """One-step compile-and-load of a py-source payload."""
    return materialize_marshal(compile_source(payload), sandbox)


@dataclass(frozen=True)
class SignedBinary:
    """One architecture's entry from a ``binary`` payload."""

    arch: str
    payload: Payload
    signature: Signature


def list_binaries(payload: Payload) -> List[SignedBinary]:
    if payload.kind != KIND_BINARY:
        raise UnsupportedPayloadError(
            f"expected {KIND_BINARY}, got {payload.kind}")
    data = _parse_json(payload.blob, KIND_BINARY)
    entries = []
    for item in data.get("binaries", ()):
        try:
            entries.append(SignedBinary(
                arch=item["arch"],
                payload=Payload(item["kind"],
                                base64.b64decode(item["blob_b64"])),
                signature=Signature.from_text(item["signature"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise UnsupportedPayloadError("corrupt binary list entry") from exc
    if not entries:
        raise UnsupportedPayloadError("empty binary list")
    return entries


def select_binary(payload: Payload, arch: str) -> SignedBinary:
    """The entry matching the local architecture (ag_exec's selection)."""
    entries = list_binaries(payload)
    for entry in entries:
        if entry.arch == arch:
            return entry
    raise UnsupportedPayloadError(
        f"no binary for architecture {arch!r} "
        f"(offered: {[e.arch for e in entries]})")


def verify_binary(binary: SignedBinary, trust_store: TrustStore) -> str:
    """Verify the signature and trust requirement; returns the signer."""
    return trust_store.verify_trusted(binary.signature, binary.payload.blob)
