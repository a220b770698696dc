"""Simulated hosts: a name, an architecture tag, and a CPU speed factor.

Architecture tags drive the paper's `ag_exec` behaviour of selecting the
binary matching the local machine from a list of per-architecture payloads
(paper section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.eventloop import Kernel
from repro.sim.network import Network

#: Default reference architecture tag.
DEFAULT_ARCH = "x86-unix"


@dataclass
class CpuStats:
    """Accumulated CPU accounting for a host."""

    busy_seconds: float = 0.0
    operations: int = 0


class SimHost:
    """A machine on the simulated network.

    ``cpu_factor`` scales work: a host with ``cpu_factor=2.0`` performs a
    reference workload in half the reference time.  This lets experiments
    model a beefy server vs a thin client.
    """

    def __init__(self, kernel: Kernel, network: Network, name: str,
                 arch: str = DEFAULT_ARCH, cpu_factor: float = 1.0):
        if cpu_factor <= 0:
            raise ValueError("cpu_factor must be positive")
        self.kernel = kernel
        self.network = network
        self.name = name
        self.arch = arch
        self.cpu_factor = cpu_factor
        self.cpu_stats = CpuStats()
        #: Crash state (mirrored into the network's host-up map, which
        #: is what transfers consult).
        self.up = True
        network.add_host(name)

    def set_up(self, up: bool) -> None:
        """Crash or revive this host, keeping the network map in sync."""
        self.up = up
        self.network.set_host_up(self.name, up)

    def cpu_seconds(self, reference_seconds: float) -> float:
        """Wall time this host needs for a reference-time workload."""
        if reference_seconds < 0:
            raise ValueError("reference_seconds must be non-negative")
        return reference_seconds / self.cpu_factor

    def compute(self, reference_seconds: float):
        """A process step spending CPU time: ``yield from host.compute(s)``."""
        seconds = self.charge_compute(reference_seconds)
        yield self.kernel.timeout(seconds)
        return seconds

    def charge_compute(self, reference_seconds: float) -> float:
        """Record CPU time and return its duration without waiting.

        The synchronous counterpart of :meth:`compute`, for code that
        accumulates cost into a ledger (see `repro.bench.metrics`).  A
        simulated HTTP request makes one on each side (the server's
        service time, the client's handling), so it is one frame, with
        :meth:`cpu_seconds` written out.
        """
        if reference_seconds < 0:
            raise ValueError("reference_seconds must be non-negative")
        seconds = reference_seconds / self.cpu_factor
        stats = self.cpu_stats
        stats.busy_seconds += seconds
        stats.operations += 1
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.metrics.inc("host.cpu_seconds", seconds,
                                  host=self.name)
        return seconds

    def __repr__(self) -> str:
        return (f"<SimHost {self.name!r} arch={self.arch} "
                f"cpu_factor={self.cpu_factor:g}>")


class HostRegistry:
    """Name → :class:`SimHost` lookup for a simulation."""

    def __init__(self):
        self._hosts = {}

    def add(self, host: SimHost) -> SimHost:
        if host.name in self._hosts:
            raise ValueError(f"duplicate host name {host.name!r}")
        self._hosts[host.name] = host
        return host

    def get(self, name: str) -> SimHost:
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def find(self, name: str) -> Optional[SimHost]:
        return self._hosts.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._hosts

    def __iter__(self):
        return iter(self._hosts.values())

    def __len__(self) -> int:
        return len(self._hosts)
