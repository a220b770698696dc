"""Cost ledgers: virtual-time accounting for synchronous code.

Agent code in the simulator is asynchronous (generator processes yielding
kernel events), but the paper's whole point is to run *unmodified,
synchronous* programs — the Webbot — inside agents.  Such a program cannot
yield.  Instead, its environment (HTTP client, exec service) records every
cost into a :class:`CostLedger`; when the program returns, the hosting
agent sleeps once for the accumulated total.

This is exact whenever the synchronous program is the only activity whose
timing matters while it runs, which holds for every experiment in the
paper (a single crawl at a time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.fold import fold_sum


@dataclass
class CostLedger:
    """Accumulated virtual-time costs, broken down by category."""

    seconds_by_category: Dict[str, float] = field(default_factory=dict)
    bytes_by_category: Dict[str, int] = field(default_factory=dict)
    events: int = 0

    def add(self, category: str, seconds: float, nbytes: int = 0) -> None:
        # ``not >=`` rather than ``<``: a NaN would poison every total.
        if not seconds >= 0 or nbytes < 0:
            raise ValueError("costs must be non-negative")
        self.seconds_by_category[category] = \
            self.seconds_by_category.get(category, 0.0) + seconds
        if nbytes:
            self.bytes_by_category[category] = \
                self.bytes_by_category.get(category, 0) + nbytes
        self.events += 1

    def add_exchange(self, network: Sequence[float], nbytes: int,
                     server: Optional[float] = None,
                     cpu: Optional[float] = None,
                     connect_fail: Optional[float] = None) -> None:
        """Book one simulated HTTP exchange in one call.

        ``network`` holds the seconds of each link crossing made, in the
        order they were made, and ``nbytes`` their payload total; then
        come the server's service time, the client's handling CPU and —
        for a connection that failed — the connect timeout, each booked
        only when given.  Every total accumulates in the order one
        :meth:`add` per cost would accumulate it, with one event per
        cost; a cost that fails :meth:`add`'s guard books none of them.
        """
        seconds_by_category = self.seconds_by_category
        total = seconds_by_category.get("network", 0.0)
        # ``not >=`` rather than ``<``: a NaN would poison every total.
        for seconds in network:
            if not seconds >= 0:
                raise ValueError("costs must be non-negative")
            total += seconds
        if nbytes < 0 or not (server is None or server >= 0) \
                or not (cpu is None or cpu >= 0) \
                or not (connect_fail is None or connect_fail >= 0):
            raise ValueError("costs must be non-negative")
        events = len(network)
        if network:
            seconds_by_category["network"] = total
            if nbytes:
                self.bytes_by_category["network"] = \
                    self.bytes_by_category.get("network", 0) + nbytes
        if server is not None:
            seconds_by_category["server"] = \
                seconds_by_category.get("server", 0.0) + server
            events += 1
        if cpu is not None:
            seconds_by_category["cpu"] = \
                seconds_by_category.get("cpu", 0.0) + cpu
            events += 1
        if connect_fail is not None:
            seconds_by_category["connect-fail"] = \
                seconds_by_category.get("connect-fail", 0.0) + connect_fail
            events += 1
        self.events += events

    def add_network(self, seconds: float, nbytes: int) -> None:
        self.add("network", seconds, nbytes)

    def add_cpu(self, seconds: float) -> None:
        self.add("cpu", seconds)

    def add_server(self, seconds: float) -> None:
        self.add("server", seconds)

    @property
    def total_seconds(self) -> float:
        return fold_sum(self.seconds_by_category.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_category.values())

    def seconds(self, category: str) -> float:
        return self.seconds_by_category.get(category, 0.0)

    def bytes(self, category: str) -> int:
        return self.bytes_by_category.get(category, 0)

    def merge(self, other: "CostLedger") -> None:
        for category, seconds in other.seconds_by_category.items():
            self.seconds_by_category[category] = \
                self.seconds_by_category.get(category, 0.0) + seconds
        for category, nbytes in other.bytes_by_category.items():
            self.bytes_by_category[category] = \
                self.bytes_by_category.get(category, 0) + nbytes
        self.events += other.events

    def snapshot(self) -> "CostLedger":
        return CostLedger(dict(self.seconds_by_category),
                          dict(self.bytes_by_category), self.events)

    def reset(self) -> None:
        self.seconds_by_category.clear()
        self.bytes_by_category.clear()
        self.events = 0

    def __repr__(self) -> str:
        parts = ", ".join(f"{cat}={sec:.4f}s"
                          for cat, sec in sorted(self.seconds_by_category.items()))
        return f"<CostLedger {self.total_seconds:.4f}s total ({parts})>"
