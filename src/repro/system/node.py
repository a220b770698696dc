"""TaxNode: one host's complete TAX installation.

A node bundles what the paper's Figure 1 shows on a single machine: the
firewall, the virtual machines behind it, and the standard service
agents — plus this simulation's local resources (the virtual filesystem
and, when the host also serves the web, access to the web deployment).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.briefcase import Briefcase
from repro.core.identity import SYSTEM_PRINCIPAL
from repro.agent.context import AgentContext
from repro.agent.mailbox import Mailbox
from repro.firewall.admin import FirewallAdmin
from repro.firewall.auth import KeyChain, TrustStore
from repro.firewall.firewall import Firewall, FirewallDirectory
from repro.firewall.policy import Policy
from repro.services.ag_cabinet import AgCabinet
from repro.services.ag_cc import AgCc
from repro.services.ag_cron import AgCron
from repro.services.ag_exec import AgExec
from repro.services.ag_fs import AgFs
from repro.services.ag_locator import AgLocator
from repro.services.base import ServiceAgent
from repro.services.vfs import VirtualFS
from repro.sim.eventloop import Kernel
from repro.sim.host import SimHost
from repro.sim.network import Network
from repro.vm.base import VirtualMachine
from repro.vm.vm_bin import VmBin
from repro.vm.vm_pickle import VmPickle
from repro.vm.vm_python import VmPython
from repro.vm.vm_source import VmSource


class TaxNode:
    """Host + firewall + VMs + services."""

    def __init__(self, kernel: Kernel, network: Network, host: SimHost,
                 directory: FirewallDirectory,
                 trust_store: Optional[TrustStore] = None,
                 keychain: Optional[KeyChain] = None,
                 policy: Optional[Policy] = None,
                 site_ordinal: int = 0,
                 web=None,
                 fs_quota_bytes: Optional[int] = None):
        self.kernel = kernel
        self.network = network
        self.host = host
        self.keychain = keychain or KeyChain()
        self.web = web
        self.vfs = VirtualFS(quota_bytes=fs_quota_bytes)
        self.firewall = Firewall(
            kernel, network, host, trust_store=trust_store, policy=policy,
            directory=directory, site_ordinal=site_ordinal)
        governor_config = self.firewall.policy.governor
        if governor_config is not None and \
                governor_config.breaker is not None:
            network.configure_breakers(governor_config.breaker)
        self.vms: Dict[str, VirtualMachine] = {}
        self.services: Dict[str, ServiceAgent] = {}
        #: Crash-durability controller (installed by
        #: ``cluster.enable_durability()``); ``None`` on volatile hosts.
        self.durability = None
        self._booted = False
        #: Crash state: False between crash() and restart().  Wrappers
        #: and services consult this to stay silent while "down".
        self.alive = True
        self._down_span = None

    # -- boot ---------------------------------------------------------------------

    def boot(self) -> "TaxNode":
        """Start the standard VMs and service agents."""
        if self._booted:
            return self
        self._booted = True
        for vm in (VmPython(self), VmSource(self), VmBin(self),
                   VmPickle(self)):
            self.add_vm(vm)
        for service in (AgExec(self), AgCc(self), AgFs(self),
                        AgCabinet(self), AgCron(self), AgLocator(self),
                        FirewallAdmin(self)):
            self.add_service(service)
        return self

    def add_vm(self, vm: VirtualMachine) -> VirtualMachine:
        if vm.name in self.vms:
            raise ValueError(f"duplicate VM {vm.name!r}")
        self.vms[vm.name] = vm
        self.firewall.vms[vm.name] = vm
        vm.boot()
        return vm

    def add_service(self, service: ServiceAgent) -> ServiceAgent:
        if service.name in self.services:
            raise ValueError(f"duplicate service {service.name!r}")
        self.services[service.name] = service
        service.boot()
        return service

    # -- crash / restart ---------------------------------------------------------------

    def crash(self, reason: str = "host-crash") -> int:
        """Kill this host: resident agents die, queues are dead-lettered.

        The host drops out of the network first (in-flight transfers to
        or from it are lost), then every firewall registration — agents,
        VMs, services — is interrupted and destroyed.  Returns the
        number of registrations destroyed; a no-op (0) if already down.
        """
        if not self.alive:
            return 0
        self.alive = False
        if self.durability is not None:
            # Freeze the journal and apply storage damage *first*: the
            # queue flushes and registration kills below are crash-time
            # bookkeeping that must not look durable.
            self.durability.on_crash()
        self.host.set_up(False)
        telemetry = self.kernel.telemetry
        self._down_span = telemetry.tracer.begin(
            "host.down", category="fault", track=f"host:{self.host.name}",
            host=self.host.name, reason=reason)
        if telemetry.enabled:
            telemetry.metrics.inc("host.crashes", host=self.host.name)
        killed = self.firewall.crash(reason)
        if telemetry.enabled:
            # The black box: freeze this host's recent-event ring into a
            # post-mortem dump the chaos/overload documents can embed.
            telemetry.flight.dump(self.host.name, reason=reason)
        return killed

    def restart(self) -> "TaxNode":
        """Bring a crashed host back: re-register VMs and services.

        Service *state* that models disk (cabinet drawers, the virtual
        filesystem) survives; registrations and agent processes do not.
        Dead-lettered messages from the crash are retransmitted with
        fresh TTLs instead of being lost.
        """
        if self.alive:
            return self
        self.alive = True
        self.host.set_up(True)
        if self._down_span is not None:
            self._down_span.end(outcome="restarted")
            self._down_span = None
        for vm in self.vms.values():
            vm.boot()
        for service in self.services.values():
            service.boot()
        if self.durability is not None:
            # Replay the journal before retransmitting: the restored
            # dead-letter ledger (not the crashed process's memory) is
            # what retransmission draws from on a durable host.
            self.durability.on_restart()
        retransmitted = self.firewall.retransmit_dead_letters()
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.flight.record(self.host.name, "restart",
                                    retransmitted=retransmitted)
        return self

    def _unlink(self) -> None:
        """Let go of the owners that point back at this node — VMs,
        services, the durability controller — and unlink the firewall
        and each system agent's registration (for
        :meth:`~repro.system.cluster.TaxCluster.close`)."""
        self.firewall._unlink()
        for agent in (*self.vms.values(), *self.services.values()):
            agent._unlink()
        self.vms = {}
        self.services = {}
        if self.durability is not None:
            self.durability._unlink()
            self.durability = None

    # -- driving the node from outside (experiments, tests) -----------------------------

    def driver(self, name: str = "driver",
               principal: str = SYSTEM_PRINCIPAL) -> AgentContext:
        """A registered pseudo-agent context for injecting work.

        The returned context can ``send``/``meet``/launch agents; run its
        generators with ``kernel.run_process`` (or inside any process).
        """
        mailbox = Mailbox(self.kernel)
        ctx = AgentContext(self, vm_name="vm_python",
                           briefcase=Briefcase(), principal=principal)

        def deliver(message):
            # Drivers honour a wrapper stack assigned after creation,
            # exactly like VM-launched agents do.
            filtered = ctx.wrappers.apply_receive(ctx, message)
            if filtered is None:
                return True
            return mailbox.deliver(filtered)

        registration = self.firewall.register_agent(
            name=name, principal=principal, vm_name="vm_python",
            deliver_fn=deliver)
        ctx.attach(registration, mailbox)
        return ctx

    def __repr__(self) -> str:
        return (f"<TaxNode {self.host.name!r} vms={sorted(self.vms)} "
                f"services={sorted(self.services)}>")
