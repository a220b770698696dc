"""ag_exec: the execute-a-program service (paper sections 3.4 and 5).

Two roles, both from the paper:

1. **Run carried binaries.**  *"It uses the ag_exec service available at
   all TAX sites to execute the Webbot binary once it has relocated to
   the web server.  Ag_exec extracts the binary matching the
   architecture of the local machine (an agent may submit a list of
   binaries matching different architectures), and executes it with the
   arguments called"* — op ``exec``: select by arch, verify the trusted
   signature, run the synchronous program with an
   :class:`ExecEnv`, charge its accumulated cost, return its result.

2. **Run installed tools** (Figure 3 step 4: "ag_exec runs the
   compiler") — op ``tool``: apply a named, locally installed
   payload-transforming tool (the standard install ships ``cc``).

The :class:`ExecEnv` is the "operating system" a hosted program sees: an
HTTP client bound to this host, the host's virtual filesystem, and a
cost ledger everything it does is charged to.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.briefcase import Briefcase
from repro.core.errors import ServiceError, TaxError
from repro.core import wellknown
from repro.firewall.message import Message
from repro.services.base import ServiceAgent
from repro.sim.ledger import CostLedger
from repro.vm import loader
from repro.vm.sandbox import TrustedSandbox

#: CPU charged for invoking a program, beyond what its env ledger records.
EXEC_OVERHEAD_SECONDS = 0.005
#: CPU per payload byte for tool runs (e.g. compilation).
TOOL_PER_BYTE_SECONDS = 5e-7


class ExecEnv:
    """What an executed program may touch on this host."""

    def __init__(self, node, principal: str):
        self.node = node
        self.principal = principal
        self.ledger = CostLedger()
        self.host = node.host
        self.fs = node.vfs
        self._http = None

    @property
    def http(self):
        """A cost-accounting HTTP client issuing from this host."""
        if self._http is None:
            if self.node.web is None:
                raise ServiceError(
                    "this site has no web deployment configured")
            from repro.web.client import SimHttpClient
            self._http = SimHttpClient(
                origin_host=self.node.host, network=self.node.network,
                deployment=self.node.web, ledger=self.ledger)
        return self._http


class AgExec(ServiceAgent):
    """The program-execution service."""

    name = "ag_exec"

    def __init__(self, node):
        super().__init__(node)
        self.sandbox = TrustedSandbox()
        self.tools: Dict[str, Callable[[loader.Payload], loader.Payload]] = {
            "cc": loader.compile_source,
        }
        self.executions = 0

    # -- op: run a carried binary ---------------------------------------------------

    def op_exec(self, message: Message):
        briefcase = message.briefcase
        payload = loader.read_payload(briefcase)
        if payload.kind != loader.KIND_BINARY:
            raise ServiceError(
                f"ag_exec runs signed binary lists, got {payload.kind!r}")
        binary = loader.select_binary(payload, self.node.host.arch)
        signer = loader.verify_binary(binary, self.firewall.trust_store)
        program = loader.materialize_marshal(binary.payload, self.sandbox)
        args = briefcase.get_json(wellknown.ARGS, {})

        env = ExecEnv(self.node, principal=signer)
        try:
            result = program(args, env)
        except TaxError:
            raise
        except Exception as exc:  # noqa: BLE001 - hosted program crashed
            raise ServiceError(f"program raised {type(exc).__name__}: {exc}"
                               ) from exc
        self.executions += 1
        yield from self.node.host.compute(EXEC_OVERHEAD_SECONDS)
        yield from self.ctx.charge(env.ledger)

        response = Briefcase()
        response.put(wellknown.RESULTS, result)
        return response

    # -- op: run an installed tool over a payload --------------------------------------

    def op_tool(self, message: Message):
        briefcase = message.briefcase
        tool_name = briefcase.get_text("TOOL")
        if tool_name is None or tool_name not in self.tools:
            raise ServiceError(f"no installed tool {tool_name!r} "
                               f"(have {sorted(self.tools)})")
        payload = loader.read_payload(briefcase)
        yield from self.node.host.compute(
            EXEC_OVERHEAD_SECONDS + payload.size * TOOL_PER_BYTE_SECONDS)
        result = self.tools[tool_name](payload)
        self.executions += 1
        response = Briefcase()
        loader.install_payload(response, result)
        return response
