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

The local site signs the compiler's output with its system key before
handing it to vm_bin — compilation happened under local control, which
is the trust vm_bin's signature check encodes.  The original sender's
``go`` ack comes from vm_bin once the agent is actually running.
"""

from __future__ import annotations

from typing import Callable

from repro.core.briefcase import Briefcase
from repro.core.errors import TaxError, VMError
from repro.core.identity import SYSTEM_PRINCIPAL
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.firewall.message import Message
from repro.vm import loader
from repro.vm.base import VirtualMachine


class VmSource(VirtualMachine):
    """Source-carrying agents, compiled on the landing pad."""

    name = "vm_source"
    accepts = (loader.KIND_SOURCE,)

    def handle_launch_message(self, message: Message):
        try:
            payload = yield from self._admit(message)

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
        except TaxError as exc:
            self.launch_failures += 1
            yield from self._reply(message, "error", str(exc))
            return

        # Step 7: hand the rewritten briefcase to vm_bin, which launches
        # the agent and acks the original sender (REPLY-TO is preserved).
        # The original source payload is stashed so the launched agent
        # keeps carrying source on its next hop (Figure 3 repeats at
        # every landing pad).
        transport = message.briefcase.snapshot()
        transport.folder(wellknown.CODE_ORIG).replace([payload.blob])
        transport.put(wellknown.CODE_KIND_ORIG, payload.kind)
        loader.install_payload(transport, signed)
        self.launched += 1
        ok = yield from self.ctx.send(
            AgentUri.for_agent("vm_bin"), transport)
        if not ok:
            yield from self._reply(message, "error", "vm_bin unavailable")

    def prepare_entry(self, message: Message,
                      payload: loader.Payload) -> Callable:
        raise VMError("vm_source delegates launching to vm_bin")
        yield  # pragma: no cover
