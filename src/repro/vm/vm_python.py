"""vm_python: executes Python agents shipped by reference or by value.

By-reference payloads (``py-ref``) resolve to software already installed
at the site — the moral equivalent of the original system's locally
present service agents.  By-value payloads (``py-marshal``) are
reconstructed inside the sandbox: shipped code sees whitelisted builtins
and imports only (see :mod:`repro.vm.sandbox`).
"""

from __future__ import annotations

from typing import Callable

from repro.core.errors import VMError
from repro.firewall.message import Message
from repro.vm import loader
from repro.vm.base import VirtualMachine


class VmPython(VirtualMachine):
    """The workhorse VM for Python agents."""

    name = "vm_python"
    accepts = (loader.KIND_REF, loader.KIND_MARSHAL)

    def prepare_entry(self, message: Message,
                      payload: loader.Payload) -> Callable:
        if payload.kind == loader.KIND_REF:
            entry = loader.materialize_ref(payload)
        else:
            entry = loader.materialize_marshal(payload, self.sandbox)
        if not callable(entry):
            raise VMError(f"payload resolved to non-callable {entry!r}")
        yield self.kernel.timeout(0)
        return entry
