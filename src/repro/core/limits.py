"""Resource-limit primitives: wire limits, token buckets, circuit breakers.

This module is the bottom layer of the overload-protection subsystem
(see :mod:`repro.firewall.governor` for the policy that composes these
into per-principal admission control).  Everything here is pure and
deterministic: time is always passed in explicitly (the simulation's
virtual clock), so two runs with the same seed replay the same admission
decisions — the same hard requirement the chaos harness imposes on the
fault injector.

Three primitives:

- :class:`WireLimits` — structural caps a decoded briefcase must obey
  (total bytes, folder/element counts, element size).  Enforced by
  :func:`repro.core.codec.decode` and by firewall admission, raising the
  typed :class:`~repro.core.errors.MalformedBriefcaseError` /
  :class:`~repro.core.errors.BriefcaseTooLargeError` instead of letting
  hostile input surface as a bare ``IndexError``/``struct.error``.
- :class:`TokenBucket` — the classic rate limiter: capacity ``burst``
  tokens, refilled at ``rate`` per second, never negative, never above
  capacity.
- :class:`CircuitBreaker` — closed → open after N consecutive failures,
  open → half-open after a cooldown (a limited number of probes may
  pass), half-open → closed on a probe success / back to open on a
  probe failure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional

# -- wire limits ------------------------------------------------------------------

#: Legacy plausibility caps (kept as the default :class:`WireLimits`
#: values; tests and callers may reference them through the codec).
MAX_FOLDERS = 1_000_000
MAX_ELEMENTS = 10_000_000
MAX_ELEMENT_BYTES = 1 << 31


@dataclass(frozen=True)
class WireLimits:
    """Hard caps on what a briefcase may look like on the wire.

    ``None`` disables an individual cap.  The defaults are deliberately
    generous — they guard against corrupt or hostile input, not against
    large-but-legitimate workloads; a firewall that wants real overload
    protection configures tighter limits through its governor.
    """

    #: Total encoded size of the briefcase (bytes).
    max_encoded_bytes: Optional[int] = 1 << 26  # 64 MB
    max_folders: int = MAX_FOLDERS
    max_elements_per_folder: int = MAX_ELEMENTS
    #: Elements summed over all folders.
    max_total_elements: int = MAX_ELEMENTS
    max_element_bytes: int = MAX_ELEMENT_BYTES

    def __post_init__(self) -> None:
        for name in ("max_folders", "max_elements_per_folder",
                     "max_total_elements", "max_element_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.max_encoded_bytes is not None and self.max_encoded_bytes < 0:
            raise ValueError("max_encoded_bytes must be non-negative")

    def to_config(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_config(cls, config: Optional[Dict[str, Any]]
                    ) -> Optional["WireLimits"]:
        if config is None:
            return None
        fields = ("max_encoded_bytes", "max_folders",
                  "max_elements_per_folder", "max_total_elements",
                  "max_element_bytes")
        return cls(**{f: config[f] for f in fields if f in config})


#: The limits :func:`repro.core.codec.decode` applies when not told
#: otherwise.
DEFAULT_WIRE_LIMITS = WireLimits()


# -- queue limits ------------------------------------------------------------------


@dataclass(frozen=True)
class QueueLimits:
    """Capacity of a bounded message queue (``None`` = unbounded)."""

    max_messages: Optional[int] = None
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_messages", "max_bytes"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive (or None)")

    @property
    def bounded(self) -> bool:
        return self.max_messages is not None or self.max_bytes is not None

    def admits(self, messages: int, nbytes: int) -> bool:
        """Would an occupancy of (``messages``, ``nbytes``) be legal?"""
        if self.max_messages is not None and messages > self.max_messages:
            return False
        if self.max_bytes is not None and nbytes > self.max_bytes:
            return False
        return True


# -- token bucket ------------------------------------------------------------------


class TokenBucket:
    """Deterministic token-bucket rate limiter (virtual-time driven).

    Invariants (property-tested): the level never drops below zero and
    never exceeds the capacity; a successful :meth:`try_take` removes
    exactly ``n`` tokens; a failed one removes none.
    """

    __slots__ = ("rate", "capacity", "level", "updated_at")

    def __init__(self, rate: float, capacity: float,
                 now: float = 0.0,
                 level: Optional[float] = None) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self.level = self.capacity if level is None else \
            min(float(level), self.capacity)
        self.updated_at = float(now)

    def _refill(self, now: float) -> None:
        elapsed = now - self.updated_at
        if elapsed > 0:
            self.level = min(self.capacity, self.level + elapsed * self.rate)
        self.updated_at = max(self.updated_at, now)

    def peek(self, now: float) -> float:
        """Current token level at ``now`` (refills as a side effect)."""
        self._refill(now)
        return self.level

    def try_take(self, n: float = 1.0, now: float = 0.0) -> bool:
        """Take ``n`` tokens if available; False (and no change) if not."""
        if n < 0:
            raise ValueError("cannot take a negative number of tokens")
        self._refill(now)
        if self.level + 1e-12 >= n:
            self.level = max(0.0, self.level - n)
            return True
        return False

# -- circuit breaker ---------------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """When to trip and how patiently to probe."""

    #: Consecutive failures that open the breaker.
    failure_threshold: int = 5
    #: Seconds the breaker stays open before allowing probes.
    cooldown_seconds: float = 2.0
    #: Probes allowed through while half-open.
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be at least 1")

    def to_config(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_config(cls, config: Optional[Dict[str, Any]]
                    ) -> Optional["BreakerConfig"]:
        if config is None:
            return None
        fields = ("failure_threshold", "cooldown_seconds",
                  "half_open_probes")
        return cls(**{f: config[f] for f in fields if f in config})


class CircuitBreaker:
    """The open → half-open → closed state machine.

    Callers ask :meth:`allow` before attempting the guarded operation
    and report the outcome with :meth:`record_success` /
    :meth:`record_failure`.  ``on_transition(old, new, now)`` fires on
    every state change (used for telemetry).
    """

    def __init__(self, config: Optional[BreakerConfig] = None,
                 on_transition: Optional[
                     Callable[[str, str, float], None]] = None
                 ) -> None:
        self.config = config or BreakerConfig()
        self.on_transition = on_transition
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.opened_count = 0
        self.fast_failures = 0
        self._probes_inflight = 0

    def _transition(self, new_state: str, now: float) -> None:
        old, self.state = self.state, new_state
        if new_state == BREAKER_OPEN:
            self.opened_at = now
            self.opened_count += 1
        if new_state == BREAKER_HALF_OPEN:
            self._probes_inflight = 0
        if new_state == BREAKER_CLOSED:
            self.consecutive_failures = 0
            self.opened_at = None
        if self.on_transition is not None and old != new_state:
            self.on_transition(old, new_state, now)

    def allow(self, now: float) -> bool:
        """May the guarded operation be attempted at ``now``?"""
        if self.state == BREAKER_OPEN:
            opened_at = self.opened_at if self.opened_at is not None else now
            if now - opened_at >= self.config.cooldown_seconds:
                self._transition(BREAKER_HALF_OPEN, now)
            else:
                self.fast_failures += 1
                return False
        if self.state == BREAKER_HALF_OPEN:
            if self._probes_inflight >= self.config.half_open_probes:
                self.fast_failures += 1
                return False
            self._probes_inflight += 1
        return True

    def record_success(self, now: float) -> None:
        if self.state == BREAKER_HALF_OPEN:
            self._transition(BREAKER_CLOSED, now)
        self.consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        if self.state == BREAKER_HALF_OPEN:
            self._transition(BREAKER_OPEN, now)
            return
        self.consecutive_failures += 1
        if self.state == BREAKER_CLOSED and \
                self.consecutive_failures >= self.config.failure_threshold:
            self._transition(BREAKER_OPEN, now)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "opened_count": self.opened_count,
            "fast_failures": self.fast_failures,
        }
