"""vm_bin: executes signed "native binaries" at full speed.

Paper section 3.3: *"the trivial virtual machine vm_bin executes
binaries directly on top of the operating system, provided the binary is
signed by a trusted principal.  In this way, the virtual machine allows
the agent to execute in an efficient way once sufficient trust has been
established."*

Here a "binary" is a ``binary`` payload: per-architecture signed
``py-marshal`` blobs.  vm_bin selects the blob matching the host's
architecture, verifies the signature against the site trust store
(requiring a *trusted*, not merely known, signer), and executes it with
an unrestricted namespace (:class:`~repro.vm.sandbox.TrustedSandbox`) —
all the capabilities of a regular process.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.errors import VMError
from repro.firewall.message import Message
from repro.vm import loader
from repro.vm.base import VirtualMachine
from repro.vm.sandbox import Sandbox, TrustedSandbox


class VmBin(VirtualMachine):
    """Signed-code VM: maximal capability after maximal scrutiny."""

    name = "vm_bin"
    accepts = (loader.KIND_BINARY,)

    def __init__(self, node, sandbox: Optional[Sandbox] = None):
        super().__init__(node, sandbox or TrustedSandbox())

    def prepare_entry(self, message: Message,
                      payload: loader.Payload) -> Callable:
        binary = loader.select_binary(payload, self.node.host.arch)
        loader.verify_binary(binary, self.firewall.trust_store)
        if binary.payload.kind != loader.KIND_MARSHAL:
            raise VMError(
                f"binary blob has kind {binary.payload.kind!r}; "
                "expected py-marshal")
        entry = loader.materialize_marshal(binary.payload, self.sandbox)
        yield self.kernel.timeout(0)
        return entry
