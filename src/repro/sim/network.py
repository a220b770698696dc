"""Simulated network: hosts joined by latency/bandwidth links.

The cost model is the standard first-order one: sending ``n`` bytes over a
link costs ``latency + n / bandwidth`` seconds.  This is exactly the
trade-off the paper's experiment measures (remote crawling pays the
network cost per page; a mobile agent pays it once for the agent and once
for the condensed result), so it is sufficient to reproduce the shape of
the results.

Bandwidth is not shared between concurrent flows (documented limitation;
the paper's experiment has one active transfer at a time).

Links are directional pairs created symmetrically by :meth:`Network.link`.
Every host implicitly has a loopback link to itself with near-zero cost,
so "local" interactions are effectively free, as on a real host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.core.errors import CircuitOpenError
from repro.core.limits import BreakerConfig, CircuitBreaker
from repro.sim.errors import SimulationError
from repro.sim.eventloop import Kernel

#: Bytes per second for 100 Mbit/s Ethernet (the paper's LAN).
BANDWIDTH_100MBIT = 100_000_000 / 8
#: Bytes per second for 10 Mbit/s Ethernet.
BANDWIDTH_10MBIT = 10_000_000 / 8
#: Bytes per second for a 1 Mbit/s WAN path.
BANDWIDTH_1MBIT = 1_000_000 / 8

#: Typical one-way latencies in seconds.
LATENCY_LAN = 0.0005
LATENCY_METRO = 0.005
LATENCY_WAN = 0.050

LOOPBACK_BANDWIDTH = 10_000_000_000 / 8
LOOPBACK_LATENCY = 0.00001


class NetworkError(SimulationError):
    """Base class for network failures."""

    #: Retryability marker read by :func:`repro.core.errors.is_transient`.
    transient = None


class NoRouteError(NetworkError):
    """There is no link between the two hosts."""

    transient = False


class LinkDownError(NetworkError):
    """The link exists but is partitioned."""

    transient = True


class HostDownError(NetworkError):
    """An endpoint host is crashed (transfers to/from it fail)."""

    transient = True


class TransferDroppedError(NetworkError):
    """The message was lost on the wire (injected fault)."""

    transient = True


class TransferCorruptedError(NetworkError):
    """The payload arrived garbled and failed its integrity check."""

    transient = True


@dataclass
class LinkStats:
    """Traffic counters for one direction of a link."""

    messages: int = 0
    payload_bytes: int = 0
    busy_seconds: float = 0.0

    def record(self, nbytes: int, seconds: float) -> None:
        self.messages += 1
        self.payload_bytes += nbytes
        self.busy_seconds += seconds


@dataclass
class Link:
    """One direction of a network path between two named hosts."""

    src: str
    dst: str
    latency: float
    bandwidth: float
    up: bool = True
    stats: LinkStats = field(default_factory=LinkStats)
    #: ``net.bytes_on_wire``, ``net.messages`` and
    #: ``net.transfer_seconds`` of this direction, held from the first
    #: transfer recorded with telemetry on.
    series: Optional[tuple] = field(default=None, repr=False,
                                    compare=False)
    #: The tracer track of this direction's ``net.transfer`` spans.
    track: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # ``not >=`` / ``not >`` rather than ``<`` / ``<=``: a NaN
        # fails every comparison and would turn each transfer time NaN.
        if not self.latency >= 0:
            raise ValueError("latency must be non-negative")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        self.track = f"net:{self.src}->{self.dst}"

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` over this link."""
        if nbytes < 0:
            raise ValueError("cannot transfer a negative number of bytes")
        return self.latency + nbytes / self.bandwidth


class Network:
    """A set of named hosts and the links between them."""

    def __init__(self, kernel: Kernel,
                 default_latency: Optional[float] = None,
                 default_bandwidth: Optional[float] = None):
        self.kernel = kernel
        self._links: Dict[Tuple[str, str], Link] = {}
        self._hosts: set = set()
        self.default_latency = default_latency
        self.default_bandwidth = default_bandwidth
        #: Hosts currently crashed (everything else is implicitly up).
        self._down_hosts: set = set()
        #: Optional fault injector (see :mod:`repro.sim.faults`): asked
        #: for a verdict on every non-loopback transfer.
        self.fault_injector = None
        #: Circuit-breaker configuration (None disables breakers).
        self.breaker_config: Optional[BreakerConfig] = None
        #: (src, dst) → breaker, created lazily per directional link.
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}

    # -- topology -------------------------------------------------------------

    def add_host(self, name: str) -> None:
        self._hosts.add(name)

    @property
    def hosts(self) -> Iterable[str]:
        return sorted(self._hosts)

    def link(self, a: str, b: str, latency: float = LATENCY_LAN,
             bandwidth: float = BANDWIDTH_100MBIT) -> None:
        """Create (or replace) a symmetric link between hosts ``a`` and ``b``."""
        if a == b:
            raise ValueError("loopback links are implicit; do not create them")
        self.add_host(a)
        self.add_host(b)
        self._links[(a, b)] = Link(a, b, latency, bandwidth)
        self._links[(b, a)] = Link(b, a, latency, bandwidth)

    def link_between(self, src: str, dst: str) -> Link:
        """The link used for src→dst traffic (creating defaults/loopback)."""
        if src == dst:
            key = (src, src)
            if key not in self._links:
                self._links[key] = Link(src, src, LOOPBACK_LATENCY,
                                        LOOPBACK_BANDWIDTH)
            return self._links[key]
        try:
            return self._links[(src, dst)]
        except KeyError:
            if self.default_latency is not None and \
                    self.default_bandwidth is not None and \
                    src in self._hosts and dst in self._hosts:
                self.link(src, dst, self.default_latency,
                          self.default_bandwidth)
                return self._links[(src, dst)]
            raise NoRouteError(f"no link {src} -> {dst}") from None

    def set_link_up(self, a: str, b: str, up: bool) -> None:
        """Partition or heal both directions of a link."""
        for key in ((a, b), (b, a)):
            if key in self._links:
                self._links[key].up = up
            else:
                raise NoRouteError(f"no link {key[0]} -> {key[1]}")

    def set_link_up_oneway(self, src: str, dst: str, up: bool) -> None:
        """Fail or heal only the src→dst direction of a link.

        The asymmetric-failure primitive: with dst→src up but src→dst
        down, dst's requests arrive and src's acks are lost — exactly
        the ambiguity the exactly-once landing handshake must survive.
        """
        link = self._links.get((src, dst))
        if link is None:
            raise NoRouteError(f"no link {src} -> {dst}")
        link.up = up

    def partition(self, groups) -> int:
        """Split the network: every directional link whose endpoints sit
        in *different* groups goes down.  Hosts absent from every group
        keep all their links (they are on "both sides").  Returns the
        number of link directions taken down.
        """
        membership: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for host in group:
                membership[host] = index
        downed = 0
        for (src, dst), link in self._links.items():
            if src == dst:
                continue
            side_a = membership.get(src)
            side_b = membership.get(dst)
            if side_a is not None and side_b is not None \
                    and side_a != side_b:
                if link.up:
                    downed += 1
                link.up = False
        return downed

    def heal(self) -> int:
        """Bring every non-loopback link back up (both directions).

        Undoes partitions *and* pairwise link-down state; returns the
        number of link directions that were down.
        """
        healed = 0
        for (src, dst), link in self._links.items():
            if src != dst and not link.up:
                link.up = True
                healed += 1
        return healed

    def set_host_up(self, name: str, up: bool) -> None:
        """Crash or revive a host (affects every transfer touching it)."""
        if up:
            self._down_hosts.discard(name)
        else:
            self._down_hosts.add(name)

    def host_is_up(self, name: str) -> bool:
        return name not in self._down_hosts

    def _check_endpoints(self, src: str, dst: str) -> None:
        for name in (src, dst):
            if name in self._down_hosts:
                raise HostDownError(f"host {name} is down")

    # -- circuit breakers ------------------------------------------------------

    def configure_breakers(self, config: Optional[BreakerConfig]) -> None:
        """Install (or remove, with ``None``) per-link circuit breakers.

        A breaker guards one *direction* of a link: after
        ``failure_threshold`` consecutive transfer failures, calls
        fast-fail with the transient
        :class:`~repro.core.errors.CircuitOpenError` — no latency spent,
        no doomed bytes on the wire — until a cooldown elapses and a
        half-open probe succeeds.
        """
        self.breaker_config = config
        self._breakers.clear()

    def breaker_between(self, src: str,
                        dst: str) -> Optional[CircuitBreaker]:
        """The breaker guarding src→dst traffic (None when disabled or
        loopback)."""
        if self.breaker_config is None or src == dst:
            return None
        key = (src, dst)
        breaker = self._breakers.get(key)
        if breaker is None:
            # The hook captures the kernel, not this network: the
            # network holds the breaker, which holds the hook.
            kernel = self.kernel

            def note(old: str, new: str, now: float,
                     _src: str = src, _dst: str = dst) -> None:
                telemetry = kernel.telemetry
                if telemetry.enabled:
                    telemetry.metrics.inc("net.breaker_transitions",
                                          src=_src, dst=_dst,
                                          old=old, new=new)
                    # Breaker flips are exactly the kind of "what just
                    # happened here" context a post-mortem needs.
                    telemetry.flight.record(_src, "breaker",
                                            dst=_dst, old=old, new=new)
            breaker = self._breakers[key] = CircuitBreaker(
                self.breaker_config, on_transition=note)
        return breaker

    def breaker_snapshots(self) -> Dict[str, dict]:
        """Deterministic ``"src->dst" → breaker state`` map."""
        return {f"{src}->{dst}": self._breakers[(src, dst)].snapshot()
                for src, dst in sorted(self._breakers)}

    def _breaker_failure(self, breaker: Optional[CircuitBreaker],
                         exc: NetworkError) -> None:
        # NoRouteError is permanent misconfiguration, not link health;
        # tripping a breaker on it would convert a permanent error into
        # a transient CircuitOpenError and mislead retry loops.
        if breaker is not None and not isinstance(exc, NoRouteError):
            breaker.record_failure(self.kernel.now)

    # -- traffic --------------------------------------------------------------

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """Cost in seconds of moving ``nbytes`` from src to dst (no effect)."""
        return self.link_between(src, dst).transfer_time(nbytes)

    def _link_series(self, link: Link) -> tuple:
        """Resolve ``link``'s three traffic series (its first transfer
        recorded with telemetry on); :meth:`transfer` and :meth:`cross`
        write them."""
        metrics = self.kernel.telemetry.metrics
        ends = {"src": link.src, "dst": link.dst}
        series = link.series = (
            metrics.counter("net.bytes_on_wire").labels(**ends),
            metrics.counter("net.messages").labels(**ends),
            metrics.histogram("net.transfer_seconds").labels(**ends))
        return series

    def transfer(self, src: str, dst: str, nbytes: int):
        """A process step that spends the transfer time and records stats.

        Usage inside a process: ``yield from net.transfer(a, b, n)``.
        Returns the elapsed seconds.  Link stats are charged only for
        transfers that *complete*: a partitioned link, a crashed
        endpoint (before or during the transfer), or an injected fault
        raises without recording traffic.
        """
        breaker = self.breaker_between(src, dst)
        if breaker is not None and not breaker.allow(self.kernel.now):
            telemetry = self.kernel.telemetry
            if telemetry.enabled:
                telemetry.metrics.inc("net.breaker_rejected",
                                      src=src, dst=dst)
            raise CircuitOpenError(
                f"link {src} -> {dst}: circuit open "
                f"(fast-failed without spending wire time)")
        try:
            link = self.link_between(src, dst)
            if not link.up:
                raise LinkDownError(f"link {src} -> {dst} is partitioned")
            self._check_endpoints(src, dst)
        except NetworkError as exc:
            self._breaker_failure(breaker, exc)
            raise
        verdict = None
        if self.fault_injector is not None and src != dst:
            verdict = self.fault_injector.verdict(src, dst, nbytes)
        seconds = link.transfer_time(nbytes)
        telemetry = self.kernel.telemetry
        tracer = telemetry.tracer
        span = tracer.begin("net.transfer", category="net",
                            track=link.track, bytes=nbytes) \
            if tracer.enabled else None
        yield self.kernel.timeout(seconds)
        try:
            # An endpoint that crashed while the bytes were in flight
            # drops the transfer.
            self._check_endpoints(src, dst)
            if verdict == "drop":
                raise TransferDroppedError(
                    f"message {src} -> {dst} lost on the wire")
            if verdict == "corrupt":
                raise TransferCorruptedError(
                    f"payload {src} -> {dst} failed its integrity check")
        except NetworkError as exc:
            self._breaker_failure(breaker, exc)
            if span is not None:
                span.end(outcome="failed", error=str(exc))
            self._record_failure(link, exc)
            raise
        if breaker is not None:
            breaker.record_success(self.kernel.now)
        link.stats.record(nbytes, seconds)
        if telemetry.enabled:
            bytes_on_wire, messages, transfer_seconds = \
                link.series or self._link_series(link)
            bytes_on_wire.inc(nbytes)
            messages.inc()
            transfer_seconds.observe(seconds)
        if span is not None:
            span.end(outcome="ok")
        return seconds

    def _record_failure(self, link: Link, exc: NetworkError) -> None:
        # The caller re-raises: raised from here, the traceback would
        # hold this frame, which holds ``exc`` — a reference cycle.
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.metrics.inc("net.transfer_failures",
                                  src=link.src, dst=link.dst,
                                  kind=type(exc).__name__)

    def route(self, src: str, dst: str) -> Tuple[Link, Link]:
        """Both directions of the src–dst path: ``(src→dst, dst→src)``.

        Resolved as :meth:`link_between` resolves them (a loopback or
        default link is made on first use; no link raises
        :class:`NoRouteError`), for a caller that crosses the path more
        than once — an HTTP exchange crosses it four times.
        """
        links = self._links
        out = links.get((src, dst))
        if out is None:
            out = self.link_between(src, dst)
        back = links.get((dst, src))
        if back is None:
            back = self.link_between(dst, src)
        return out, back

    def cross(self, link: Link, nbytes: int) -> float:
        """Record one crossing of ``link`` by ``nbytes`` and return its
        duration *without* waiting.

        Raises if the link is partitioned, then if an endpoint is down,
        then on a negative size; otherwise counts the crossing in the
        link's :class:`LinkStats` and, with telemetry on, its three
        ``net.*`` series.  :meth:`Link.transfer_time` and
        :meth:`LinkStats.record` are written out in the order they run.
        """
        if not link.up:
            raise LinkDownError(
                f"link {link.src} -> {link.dst} is partitioned")
        if self._down_hosts:
            self._check_endpoints(link.src, link.dst)
        if nbytes < 0:
            raise ValueError("cannot transfer a negative number of bytes")
        seconds = link.latency + nbytes / link.bandwidth
        stats = link.stats
        stats.messages += 1
        stats.payload_bytes += nbytes
        stats.busy_seconds += seconds
        if self.kernel.telemetry.enabled:
            bytes_on_wire, messages, transfer_seconds = \
                link.series or self._link_series(link)
            bytes_on_wire.inc(nbytes)
            messages.inc()
            transfer_seconds.observe(seconds)
        return seconds

    def charge(self, src: str, dst: str, nbytes: int) -> float:
        """Record a src→dst transfer and return its duration *without*
        waiting: :meth:`cross` on the link :meth:`link_between` resolves.

        Used by synchronous code that accumulates cost into a ledger and
        sleeps once at the end (the HTTP client resolves its path once
        with :meth:`route` and crosses it directly).  Raises if there is
        no route, the link is partitioned or an endpoint is down.
        """
        link = self._links.get((src, dst))
        if link is None:
            # First loopback use, a default link to create, or no route.
            link = self.link_between(src, dst)
        return self.cross(link, nbytes)

    # -- accounting -----------------------------------------------------------

    def total_remote_bytes(self) -> int:
        """Total payload bytes that crossed any non-loopback link."""
        return sum(link.stats.payload_bytes
                   for (a, b), link in self._links.items() if a != b)

    def total_remote_messages(self) -> int:
        return sum(link.stats.messages
                   for (a, b), link in self._links.items() if a != b)
