"""Discrete-event simulation substrate.

This package replaces the paper's physical testbed (Unix workstations on a
100 Mbit LAN) with a deterministic virtual-time simulation:

- :mod:`repro.sim.eventloop` — the kernel (events, timeouts, processes).
- :mod:`repro.sim.network` — latency/bandwidth links with traffic accounting.
- :mod:`repro.sim.host` — hosts with architecture tags and CPU factors.
- :mod:`repro.sim.rng` — seeded, forkable random streams.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(globals(), {
    ".eventloop": "AllOf AnyOf Event Kernel Process Timeout",
    ".errors": "EventAlreadyTriggered Interrupt SimulationError StopProcess",
    ".host": "DEFAULT_ARCH HostRegistry SimHost",
    ".network": (
        "BANDWIDTH_1MBIT BANDWIDTH_10MBIT BANDWIDTH_100MBIT LATENCY_LAN "
        "LATENCY_METRO LATENCY_WAN Link LinkDownError LinkStats Network "
        "NetworkError NoRouteError"),
    ".rng": "RandomStream stream_from",
})
