"""First-order analytic cost model for the mobile-vs-stationary choice.

The paper's argument ("move the computation to the data when the result
is smaller than the data") is an analytic claim.  This module writes it
down as equations matching the simulator's cost structure, so the
simulation can *validate* the model and the model can *explain* the
simulation — including where the crossover falls (experiment M1).

Components (per crawled page, link ``L`` = client↔server):

- TCP setup: ``2·latency`` per handshake round trip;
- request:   ``latency + request_bytes/bandwidth``;
- service:   ``server_per_request + page_kb·server_per_kb`` CPU;
- response:  ``latency + (page_bytes + header)/bandwidth``;
- client:    ``client_per_request + page_bytes·client_per_byte`` CPU.

The stationary robot pays the link costs on ``L`` for every page; the
mobile robot pays them on the loopback link, plus a one-time cost to
ship the agent over ``L`` and the condensed report back.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.network import LOOPBACK_BANDWIDTH, LOOPBACK_LATENCY
from repro.web.server import REQUEST_OVERHEAD_BYTES, RESPONSE_OVERHEAD_BYTES


@dataclass(frozen=True)
class LinkParams:
    latency: float
    bandwidth: float

    @classmethod
    def loopback(cls) -> "LinkParams":
        return cls(LOOPBACK_LATENCY, LOOPBACK_BANDWIDTH)


@dataclass(frozen=True)
class CrawlWorkload:
    """What the robot will do, in workload terms."""

    pages: int
    total_page_bytes: int
    requests_per_page: float = 1.0
    mean_path_bytes: int = 30


@dataclass(frozen=True)
class MachineParams:
    """CPU-side constants (mirroring ServerModel/ClientModel defaults)."""

    server_per_request: float = 0.003
    server_per_kb: float = 0.0002
    client_per_request: float = 0.0005
    client_per_byte: float = 1.5e-6
    handshake_rtts: int = 1

    @classmethod
    def from_models(cls, server_model, client_model) -> "MachineParams":
        return cls(server_per_request=server_model.per_request_cpu,
                   server_per_kb=server_model.per_kilobyte_cpu,
                   client_per_request=client_model.per_request_cpu,
                   client_per_byte=client_model.per_byte_cpu,
                   handshake_rtts=client_model.handshake_rtts)


@dataclass(frozen=True)
class AgentParams:
    """One-time mobile-agent costs."""

    agent_bytes: int = 60_000
    report_bytes: int = 15_000
    launch_overhead: float = 0.02


def crawl_seconds(workload: CrawlWorkload, link: LinkParams,
                  machine: MachineParams) -> float:
    """Time for one robot to crawl the workload over one link."""
    pages = workload.pages * workload.requests_per_page
    request_bytes = REQUEST_OVERHEAD_BYTES + 3 + workload.mean_path_bytes
    response_header = RESPONSE_OVERHEAD_BYTES

    per_page_latency = link.latency * (2 * machine.handshake_rtts + 2)
    wire_bytes = pages * (request_bytes + response_header) + \
        workload.total_page_bytes
    network = pages * per_page_latency + wire_bytes / link.bandwidth
    server = pages * machine.server_per_request + \
        (workload.total_page_bytes / 1024.0) * machine.server_per_kb
    client = pages * machine.client_per_request + \
        workload.total_page_bytes * machine.client_per_byte
    return network + server + client


def stationary_seconds(workload: CrawlWorkload, link: LinkParams,
                       machine: MachineParams) -> float:
    """The non-mobile robot: every page crosses the client↔server link."""
    return crawl_seconds(workload, link, machine)


def mobile_seconds(workload: CrawlWorkload, link: LinkParams,
                   machine: MachineParams,
                   agent: AgentParams) -> float:
    """The wrapped robot: crawl over loopback, pay shipping once."""
    shipping = (2 * link.latency + agent.agent_bytes / link.bandwidth +
                2 * link.latency + agent.report_bytes / link.bandwidth)
    local = crawl_seconds(workload, LinkParams.loopback(), machine)
    return shipping + agent.launch_overhead + local


def predicted_speedup(workload: CrawlWorkload, link: LinkParams,
                      machine: MachineParams,
                      agent: AgentParams) -> float:
    return stationary_seconds(workload, link, machine) / \
        mobile_seconds(workload, link, machine, agent)


def crossover_pages(link: LinkParams, machine: MachineParams,
                    agent: AgentParams, mean_page_bytes: float,
                    max_pages: int = 1_000_000) -> int:
    """Smallest page count at which going mobile pays (bisection).

    Returns ``max_pages`` if the mobile agent never wins below it.
    """
    def wins(pages: int) -> bool:
        workload = CrawlWorkload(pages=pages,
                                 total_page_bytes=int(pages *
                                                      mean_page_bytes))
        return predicted_speedup(workload, link, machine, agent) > 1.0

    if wins(1):
        return 1
    if not wins(max_pages):
        return max_pages
    low, high = 1, max_pages
    while high - low > 1:
        mid = (low + high) // 2
        if wins(mid):
            high = mid
        else:
            low = mid
    return high


def crossover_bandwidth(workload: CrawlWorkload, latency: float,
                        machine: MachineParams, agent: AgentParams,
                        low: float = 1e3, high: float = 1e12) -> float:
    """Bandwidth (B/s) above which the stationary robot wins (bisection).

    Below the returned bandwidth the mobile agent is faster.  Returns
    ``high`` when the mobile agent wins even at ``high`` bandwidth.
    """
    def mobile_wins(bandwidth: float) -> bool:
        link = LinkParams(latency, bandwidth)
        return predicted_speedup(workload, link, machine, agent) > 1.0

    if not mobile_wins(low):
        return low
    if mobile_wins(high):
        return high
    for _ in range(80):
        mid = (low * high) ** 0.5
        if mobile_wins(mid):
            low = mid
        else:
            high = mid
    return high
