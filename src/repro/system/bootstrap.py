"""Standard deployments: the topologies the experiments run on.

- :func:`build_linkcheck_testbed` — the paper's Section-5 setup: a client
  workstation and the department web server on a LAN (bandwidth/latency
  configurable up to WAN), plus external web hosts behind a WAN link.
- :func:`build_campus_testbed` — E4's "all the servers at the university
  campus": N web-server hosts, each with its own site, plus the client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.telemetry import Telemetry
from repro.sim.network import (
    BANDWIDTH_1MBIT,
    BANDWIDTH_100MBIT,
    LATENCY_LAN,
    LATENCY_WAN,
)
from repro.system.cluster import TaxCluster
from repro.system.node import TaxNode
from repro.web.server import ServerModel, WebDeployment, WebServer
from repro.web.site import (
    Site,
    SiteSpec,
    external_stub_site,
    generate_site,
    paper_site_spec,
)

CLIENT_HOST = "client.cs.uit.no"
SERVER_HOST = "www.cs.uit.no"
DEFAULT_EXTERNAL_HOSTS = ("www.w3.org", "www.cornell.edu")


@dataclass
class Testbed:
    """A ready-to-run deployment."""

    cluster: TaxCluster
    deployment: WebDeployment
    client: TaxNode
    servers: List[TaxNode]
    sites: Dict[str, Site] = field(default_factory=dict)

    @property
    def kernel(self):
        return self.cluster.kernel

    @property
    def network(self):
        return self.cluster.network

    @property
    def server(self) -> TaxNode:
        return self.servers[0]

    def site_of(self, host_name: str) -> Site:
        return self.sites[host_name]


def _add_external_web(cluster: TaxCluster, deployment: WebDeployment,
                      external_hosts: Sequence[str],
                      attached_hosts: Sequence[str],
                      wan_latency: float, wan_bandwidth: float) -> None:
    """External web hosts are plain web servers (no TAX node needed, but
    they still need a host on the network); every attached host reaches
    them over a WAN link."""
    from repro.sim.host import SimHost
    for ext in external_hosts:
        host = cluster.hosts.add(
            SimHost(cluster.kernel, cluster.network, ext))
        deployment.add(WebServer(host, external_stub_site(ext)))
        for attached in attached_hosts:
            cluster.network.link(attached, ext,
                                 latency=wan_latency,
                                 bandwidth=wan_bandwidth)


def build_linkcheck_testbed(
        spec: Optional[SiteSpec] = None,
        bandwidth: float = BANDWIDTH_100MBIT,
        latency: float = LATENCY_LAN,
        external_hosts: Sequence[str] = DEFAULT_EXTERNAL_HOSTS,
        wan_latency: float = LATENCY_WAN,
        wan_bandwidth: float = BANDWIDTH_1MBIT,
        server_model: Optional[ServerModel] = None,
        client_host: str = CLIENT_HOST,
        telemetry: Optional[Telemetry] = None) -> Testbed:
    """The Section-5 experiment world.

    One TAX node on the client workstation, one on the web server; the
    crawl target site is generated from ``spec`` (the paper's 917-page /
    3 MB workload by default).
    """
    spec = spec or paper_site_spec(external_hosts=tuple(external_hosts))
    deployment = WebDeployment()
    cluster = TaxCluster(web=deployment, telemetry=telemetry)

    client = cluster.add_node(client_host)
    server = cluster.add_node(spec.host)
    cluster.network.link(client_host, spec.host,
                         latency=latency, bandwidth=bandwidth)

    site = generate_site(spec)
    deployment.add(WebServer(server.host, site, model=server_model))
    _add_external_web(cluster, deployment, external_hosts,
                      [client_host, spec.host], wan_latency, wan_bandwidth)
    return Testbed(cluster=cluster, deployment=deployment, client=client,
                   servers=[server], sites={spec.host: site})


def build_campus_testbed(
        n_servers: int = 4,
        pages_per_server: int = 200,
        bytes_per_server: int = 700_000,
        bandwidth: float = BANDWIDTH_100MBIT,
        latency: float = LATENCY_LAN,
        client_bandwidth: float = BANDWIDTH_1MBIT,
        client_latency: float = LATENCY_WAN,
        external_hosts: Sequence[str] = DEFAULT_EXTERNAL_HOSTS,
        seed: int = 2000,
        client_host: str = "client.remote.example.org",
        telemetry: Optional[Telemetry] = None) -> Testbed:
    """E4's world: a campus of web servers on a fast LAN, audited from a
    client that reaches the campus over a slow link."""
    if n_servers < 1:
        raise ValueError("campus needs at least one server")
    deployment = WebDeployment()
    cluster = TaxCluster(web=deployment, telemetry=telemetry)
    client = cluster.add_node(client_host)

    servers: List[TaxNode] = []
    sites: Dict[str, Site] = {}
    server_names = [f"www{i:02d}.uit.no" for i in range(n_servers)]
    for i, name in enumerate(server_names):
        node = cluster.add_node(name)
        servers.append(node)
        spec = SiteSpec(
            host=name, n_pages=pages_per_server,
            total_bytes=bytes_per_server,
            external_hosts=tuple(external_hosts),
            seed=seed + i)
        site = generate_site(spec)
        sites[name] = site
        deployment.add(WebServer(node.host, site))
        cluster.network.link(client_host, name,
                             latency=client_latency,
                             bandwidth=client_bandwidth)
    # Campus LAN: full mesh between the servers.
    for i, a in enumerate(server_names):
        for b in server_names[i + 1:]:
            cluster.network.link(a, b, latency=latency, bandwidth=bandwidth)
    _add_external_web(cluster, deployment, external_hosts,
                      server_names + [client_host],
                      LATENCY_WAN, BANDWIDTH_1MBIT)
    return Testbed(cluster=cluster, deployment=deployment, client=client,
                   servers=servers, sites=sites)
