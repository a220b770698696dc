"""Discrete-event simulation substrate.

This package replaces the paper's physical testbed (Unix workstations on a
100 Mbit LAN) with a deterministic virtual-time simulation:

- :mod:`repro.sim.eventloop` — the kernel (events, timeouts, processes).
- :mod:`repro.sim.network` — latency/bandwidth links with traffic accounting.
- :mod:`repro.sim.host` — hosts with architecture tags and CPU factors.
- :mod:`repro.sim.rng` — seeded, forkable random streams.
"""

from repro.sim.errors import (
    EventAlreadyTriggered,
    Interrupt,
    SimulationError,
    StopProcess,
)
from repro.sim.eventloop import AllOf, AnyOf, Event, Kernel, Process, Timeout
from repro.sim.host import DEFAULT_ARCH, HostRegistry, SimHost
from repro.sim.network import (
    BANDWIDTH_1MBIT,
    BANDWIDTH_10MBIT,
    BANDWIDTH_100MBIT,
    LATENCY_LAN,
    LATENCY_METRO,
    LATENCY_WAN,
    Link,
    LinkDownError,
    LinkStats,
    Network,
    NetworkError,
    NoRouteError,
)
from repro.sim.rng import RandomStream, stream_from

__all__ = [
    "AllOf", "AnyOf", "Event", "Kernel", "Process", "Timeout",
    "EventAlreadyTriggered", "Interrupt", "SimulationError", "StopProcess",
    "DEFAULT_ARCH", "HostRegistry", "SimHost",
    "BANDWIDTH_1MBIT", "BANDWIDTH_10MBIT", "BANDWIDTH_100MBIT",
    "LATENCY_LAN", "LATENCY_METRO", "LATENCY_WAN",
    "Link", "LinkDownError", "LinkStats", "Network", "NetworkError",
    "NoRouteError",
    "RandomStream", "stream_from",
]
