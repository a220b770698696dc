"""vm_source: the Figure-3 compile-at-destination VM (the paper's vm_c).

An agent arrives as *source text* and goes through the activation chain
of paper Figure 3:

1. the briefcase is delivered to vm_source (vm_c);
2. vm_source activates **ag_cc**, which extracts the code;
3. ag_cc activates **ag_exec** with the code and the compiler;
4. ag_exec runs the compiler;
5. the "binary" is returned to ag_cc, which
6. returns it to vm_source;
7. vm_source uses **vm_bin** to activate the now-compiled agent.

All seven steps are vm_source's :meth:`~VmSource.prepare_entry`, so a
source launch runs the one launch path of :mod:`repro.vm.base` — the
landing slot, the launch policy, the registration under the sender's
principal, the journal's ``agent-arrive`` record and the one ack.  The
local site signs the compiler's output with its system key, and step 7
is vm_bin's own ``prepare_entry``: its architecture selection, its
trusted-signature check (compilation happened under local control, which
is the trust that check encodes) and its materialisation in vm_bin's
trusted sandbox.  The agent itself is vm_source's: it keeps carrying its
source, so Figure 3 repeats at every landing pad and on every journal
replay, and its wrappers are built in vm_source's sandbox.
"""

from __future__ import annotations

from typing import Callable

from repro.core.briefcase import Briefcase
from repro.core.errors import VMError
from repro.core.identity import SYSTEM_PRINCIPAL
from repro.firewall.message import Message
from repro.vm import loader
from repro.vm.base import VirtualMachine


class VmSource(VirtualMachine):
    """Source-carrying agents, compiled on the landing pad."""

    name = "vm_source"
    accepts = (loader.KIND_SOURCE,)

    def prepare_entry(self, message: Message,
                      payload: loader.Payload) -> Callable:
        vm_bin = self.node.vms.get("vm_bin")
        if vm_bin is None:
            raise VMError("vm_bin unavailable")

        # Steps 2-6: ag_cc -> ag_exec -> compiled payload.
        request = Briefcase()
        loader.install_payload(request, payload)
        response = yield from self.ctx.call_service(
            "ag_cc", "compile", request)
        compiled = loader.read_payload(response)

        # Local signature: the site vouches for its own compiler output.
        signed = loader.pack_binary_list(
            [(self.node.host.arch, compiled)],
            self.node.keychain, SYSTEM_PRINCIPAL)

        # Step 7: vm_bin selects, verifies and materialises the binary.
        return (yield from vm_bin.prepare_entry(message, signed))
