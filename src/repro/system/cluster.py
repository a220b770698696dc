"""TaxCluster: a multi-host TAX deployment over the simulated network.

The cluster owns the kernel, the network, the shared key/trust material,
and the firewall directory; nodes are added per host.  This is the
top-level object experiments build (usually through
:mod:`repro.system.bootstrap`).  A world's life is build → run → read
the document → :meth:`TaxCluster.close` (see "World lifecycle" in
``docs/architecture.md``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.identity import SYSTEM_PRINCIPAL
from repro.core.uri import AgentUri
from repro.firewall.auth import KeyChain, TrustStore
from repro.firewall.firewall import FirewallDirectory
from repro.firewall.policy import Policy
from repro.obs.telemetry import Telemetry
from repro.sim.eventloop import Kernel
from repro.sim.host import HostRegistry, SimHost
from repro.sim.network import Network
from repro.system.node import TaxNode


class TaxCluster:
    """All the TAX nodes of one simulated world.

    Build it, run it, read what the document needs, then :meth:`close`
    it: a closed world holds no reference cycle, so it is freed the
    moment the last outside reference goes, not by the collector.
    """

    def __init__(self, kernel: Optional[Kernel] = None,
                 network: Optional[Network] = None,
                 web=None, telemetry: Optional[Telemetry] = None):
        self.kernel = kernel or Kernel(telemetry=telemetry)
        self.network = network or Network(self.kernel)
        self.web = web
        self.hosts = HostRegistry()
        self.nodes: Dict[str, TaxNode] = {}
        self.directory = FirewallDirectory()
        self.keychain = KeyChain()
        self._shared_secrets: Dict[str, bytes] = {}
        self._trusted: set = set()
        #: The conservation auditor, once ``enable_conservation()`` ran.
        self._auditor = None
        # Every deployment has the system principal, trusted everywhere.
        self.add_principal(SYSTEM_PRINCIPAL, trusted=True)

    @property
    def telemetry(self) -> Telemetry:
        """The system-wide telemetry hub (owned by the kernel)."""
        return self.kernel.telemetry

    # -- principals --------------------------------------------------------------------

    def add_principal(self, principal: str, trusted: bool = False) -> None:
        """Create a signing key and make every (future) node know it."""
        secret = self.keychain.create_key(principal)
        self._shared_secrets[principal] = secret
        if trusted:
            self._trusted.add(principal)
        for node in self.nodes.values():
            node.firewall.trust_store.add_principal(
                principal, secret, trusted=trusted)

    def _make_trust_store(self) -> TrustStore:
        store = TrustStore()
        for principal, secret in self._shared_secrets.items():
            store.add_principal(principal, secret,
                                trusted=principal in self._trusted)
        return store

    # -- nodes ----------------------------------------------------------------------------

    def add_node(self, host_name: str, arch: str = "x86-unix",
                 cpu_factor: float = 1.0,
                 policy: Optional[Policy] = None,
                 boot: bool = True) -> TaxNode:
        if host_name in self.nodes:
            raise ValueError(f"duplicate node {host_name!r}")
        host = self.hosts.add(
            SimHost(self.kernel, self.network, host_name,
                    arch=arch, cpu_factor=cpu_factor))
        node = TaxNode(
            self.kernel, self.network, host, directory=self.directory,
            trust_store=self._make_trust_store(), keychain=self.keychain,
            policy=policy, site_ordinal=len(self.nodes), web=self.web)
        self.nodes[host_name] = node
        if self._auditor is not None:
            self._auditor.follow(node.firewall)
        if boot:
            node.boot()
        return node

    def node(self, host_name: str) -> TaxNode:
        try:
            return self.nodes[host_name]
        except KeyError:
            raise KeyError(f"no TAX node on host {host_name!r}") from None

    def configure_breakers(self, config) -> None:
        """Install circuit breakers (a
        :class:`~repro.core.limits.BreakerConfig`) on every inter-host
        link; ``None`` removes them."""
        self.network.configure_breakers(config)

    # -- durability --------------------------------------------------------------------------

    def enable_durability(self, injector=None,
                          snapshot_interval: Optional[int] = None):
        """Give every node a crash-durable store + write-ahead journal.

        ``injector`` (a :class:`~repro.sim.faults.FaultInjector`) rolls
        the seeded storage faults; pass the scenario's injector so crash
        damage shares the run's seed.  Returns the per-host
        :class:`~repro.durability.recovery.HostDurability` controllers,
        keyed by host name.
        """
        from repro.durability.recovery import HostDurability
        kwargs = {}
        if snapshot_interval is not None:
            kwargs["snapshot_interval"] = snapshot_interval
        return {name: HostDurability(self.nodes[name], injector=injector,
                                     **kwargs)
                for name in sorted(self.nodes)}

    def enable_conservation(self):
        """Subscribe the system-wide agent-conservation auditor
        (:class:`~repro.durability.conservation.ConservationAuditor`)
        to every node — those added later too — and return it."""
        from repro.durability.conservation import ConservationAuditor
        self._auditor = ConservationAuditor()
        for name in sorted(self.nodes):
            self._auditor.follow(self.nodes[name].firewall)
        return self._auditor

    # -- addressing --------------------------------------------------------------------------

    def vm_uri(self, host_name: str, vm_name: str = "vm_python") -> AgentUri:
        """The launch address of a VM at a host (a ``go`` target)."""
        if host_name not in self.nodes:
            raise KeyError(f"no TAX node on host {host_name!r}")
        return AgentUri(host=host_name, name=vm_name)

    # -- running ------------------------------------------------------------------------------

    def run(self, generator, name: str = "scenario",
            until: Optional[float] = None):
        """Run a top-level scenario process to completion."""
        return self.kernel.run_process(generator, name=name, until=until)

    def close(self) -> None:
        """End this world once its document is built, so reference
        counting frees it the moment the last outside reference goes.

        The hosts stop announcing first — tearing a world down is no
        host event, so no journal record or conservation verdict moves
        — then :meth:`Kernel.close` ends every live process, then each
        node lets go of what only a running world needs (VMs, services,
        durability controller, registrations, the firewall's queue
        callbacks and peer directory).  Counters, ledgers, journals,
        telemetry and the clock stay readable; running again raises.
        """
        for node in self.nodes.values():
            node.firewall.changes.sinks.clear()
        self.kernel.close()
        for node in self.nodes.values():
            node._unlink()
