"""The governor: per-principal admission control for one firewall.

The paper's firewall is a reference monitor — it authenticates agents
and enforces *access* rights — but access control alone does not protect
a host from a well-behaved principal that is simply too hot.  The
governor adds the *resource* half of host protection: every message and
every agent arrival passes an admission check against per-principal
quotas before it may consume the host's queues, VMs, or cabinet.

Quotas (:class:`QuotaSpec`) cover the four resources a hot principal
can exhaust:

- **message rate** — a deterministic, virtual-time
  :class:`~repro.core.limits.TokenBucket` per principal;
- **bytes in flight** — encoded bytes the principal currently has
  parked in this firewall's pending queue;
- **resident agents** — live registrations owned by the principal;
- **cabinet bytes** — encoded bytes stored in ag_cabinet drawers.

Rejections raise the *transient* :class:`~repro.core.errors.OverloadError`
family (:class:`QuotaExceededError`, :class:`QueueFullError`), so a
sender equipped with the PR 2 :class:`~repro.core.retry.RetryPolicy`
backs off and retries instead of failing outright — graceful
degradation, not crash-under-load.

The governor's configuration (:class:`GovernorConfig`) also carries the
bounded-queue limits and overflow policy for the firewall's pending
queue, the wire limits admission enforces, and the circuit-breaker
config installed on the simulated network.  It is attached to a
:class:`~repro.firewall.policy.Policy` (``policy.governor``) so resource
rules deploy through the same object as access rules.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.core.errors import (
    BriefcaseTooLargeError,
    QuotaExceededError,
)
from repro.core.identity import SYSTEM_PRINCIPAL
from repro.core.limits import (
    BreakerConfig,
    QueueLimits,
    TokenBucket,
    WireLimits,
)

#: Overflow policies for bounded queues.
OVERFLOW_REJECT = "reject"
OVERFLOW_DROP_OLDEST = "drop-oldest"
OVERFLOW_SHED_PRIORITY = "shed-priority"
OVERFLOW_POLICIES = (OVERFLOW_REJECT, OVERFLOW_DROP_OLDEST,
                     OVERFLOW_SHED_PRIORITY)

#: Default retained dead-letter records per queue.
DEFAULT_DEAD_LETTER_LIMIT = 1000


@dataclass(frozen=True)
class QuotaSpec:
    """Per-principal resource budget (``None`` disables a dimension)."""

    #: Sustained message admissions per virtual second.
    messages_per_second: Optional[float] = None
    #: Bucket capacity (burst size); defaults to ``2 * rate`` (min 1).
    burst: Optional[float] = None
    #: Encoded bytes the principal may have parked in the pending queue.
    max_bytes_in_flight: Optional[int] = None
    #: Live agent registrations the principal may hold at once.
    max_resident_agents: Optional[int] = None
    #: Encoded bytes the principal may store in cabinet drawers.
    max_cabinet_bytes: Optional[int] = None

    def __post_init__(self):
        if self.messages_per_second is not None and \
                self.messages_per_second <= 0:
            raise ValueError("messages_per_second must be positive")
        if self.burst is not None and self.burst < 1:
            raise ValueError("burst must be at least 1")
        for name in ("max_bytes_in_flight", "max_resident_agents",
                     "max_cabinet_bytes"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def bucket_capacity(self) -> float:
        if self.burst is not None:
            return float(self.burst)
        return max(1.0, 2.0 * (self.messages_per_second or 0.0))

    def to_config(self) -> dict:
        return asdict(self)

    @classmethod
    def from_config(cls, config: Optional[dict]) -> Optional["QuotaSpec"]:
        if config is None:
            return None
        fields = ("messages_per_second", "burst", "max_bytes_in_flight",
                  "max_resident_agents", "max_cabinet_bytes")
        return cls(**{f: config[f] for f in fields if f in config})


@dataclass
class GovernorConfig:
    """Everything a firewall needs to become an admission controller."""

    #: principal → explicit quota.
    quotas: Dict[str, QuotaSpec] = field(default_factory=dict)
    #: Quota applied to principals without an explicit entry.  The
    #: system principal is exempt from the default (infrastructure —
    #: VMs, services, admin — must not starve), but an *explicit* entry
    #: for it is honoured.
    default_quota: Optional[QuotaSpec] = None
    #: Bounds on the firewall's pending queue (None = unbounded).
    queue_limits: Optional[QueueLimits] = None
    #: What to do when the pending queue is full.
    overflow: str = OVERFLOW_REJECT
    #: Wire limits enforced at admission (None = codec defaults only).
    wire_limits: Optional[WireLimits] = None
    #: Circuit-breaker configuration for inter-host links.
    breaker: Optional[BreakerConfig] = None
    #: Retained dead letters per queue before eviction.
    dead_letter_limit: int = DEFAULT_DEAD_LETTER_LIMIT

    def __post_init__(self):
        if self.overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {self.overflow!r} "
                f"(have {list(OVERFLOW_POLICIES)})")
        if self.dead_letter_limit < 1:
            raise ValueError("dead_letter_limit must be positive")


class Governor:
    """One firewall's admission controller."""

    def __init__(self, kernel, host_name: str,
                 config: Optional[GovernorConfig] = None):
        self.kernel = kernel
        self.host_name = host_name
        self.config = config or GovernorConfig()
        self._buckets: Dict[str, TokenBucket] = {}
        self.admitted = 0
        #: reason → rejection count (deterministic, sorted in snapshots).
        self.rejections: Dict[str, int] = {}

    # -- bookkeeping --------------------------------------------------------------

    def _reject(self, reason: str, principal: str, detail: str) -> None:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        telemetry = self.kernel.telemetry
        if telemetry.enabled:
            telemetry.metrics.inc("fw.quota_rejected", host=self.host_name,
                                  principal=principal, reason=reason)
        raise QuotaExceededError(
            f"{principal!r} at {self.host_name}: {detail}")

    def quota_for(self, principal: str) -> Optional[QuotaSpec]:
        explicit = self.config.quotas.get(principal)
        if explicit is not None:
            return explicit
        if principal == SYSTEM_PRINCIPAL:
            return None
        return self.config.default_quota

    def _bucket_for(self, principal: str,
                    quota: QuotaSpec) -> Optional[TokenBucket]:
        if quota.messages_per_second is None:
            return None
        bucket = self._buckets.get(principal)
        if bucket is None:
            bucket = self._buckets[principal] = TokenBucket(
                rate=quota.messages_per_second,
                capacity=quota.bucket_capacity,
                now=self.kernel.now)
        return bucket

    # -- admission checks ----------------------------------------------------------

    def check_wire(self, wire_bytes: int) -> None:
        """Size gate for an encoded briefcase about to enter/leave."""
        limits = self.config.wire_limits
        if limits is not None and limits.max_encoded_bytes is not None and \
                wire_bytes > limits.max_encoded_bytes:
            raise BriefcaseTooLargeError(
                f"message of {wire_bytes} wire bytes exceeds the "
                f"{limits.max_encoded_bytes}-byte limit at "
                f"{self.host_name}")

    def admit_message(self, principal: str, wire_bytes: int,
                      pending=None) -> None:
        """Admit one message from ``principal`` or raise.

        Raises :class:`BriefcaseTooLargeError` (permanent) on a wire
        violation, :class:`QuotaExceededError` (transient) on rate or
        bytes-in-flight exhaustion.
        """
        self.check_wire(wire_bytes)
        quota = self.quota_for(principal)
        if quota is None:
            self.admitted += 1
            return
        bucket = self._bucket_for(principal, quota)
        if bucket is not None and \
                not bucket.try_take(1.0, now=self.kernel.now):
            self._reject("rate", principal,
                         f"message rate quota exhausted "
                         f"({quota.messages_per_second:g}/s)")
        if quota.max_bytes_in_flight is not None and pending is not None:
            in_flight = pending.bytes_for_principal(principal)
            if in_flight + wire_bytes > quota.max_bytes_in_flight:
                self._reject(
                    "bytes-in-flight", principal,
                    f"{in_flight} + {wire_bytes} parked bytes would "
                    f"exceed the {quota.max_bytes_in_flight}-byte quota")
        self.admitted += 1

    def resident_quota(self, principal: str) -> Optional[int]:
        """The principal's ``max_resident_agents`` (None: unlimited)."""
        quota = self.quota_for(principal)
        return None if quota is None else quota.max_resident_agents

    def admit_agent(self, principal: str, resident_count: int) -> None:
        """Admit one more resident agent registration or raise."""
        limit = self.resident_quota(principal)
        if limit is not None and resident_count >= limit:
            self._reject(
                "resident-agents", principal,
                f"{resident_count} resident agents already "
                f"(quota {limit})")

    def admit_cabinet(self, principal: str, stored_bytes: int,
                      new_bytes: int) -> None:
        """Admit ``new_bytes`` more cabinet storage or raise."""
        quota = self.quota_for(principal)
        if quota is None or quota.max_cabinet_bytes is None:
            return
        if stored_bytes + new_bytes > quota.max_cabinet_bytes:
            self._reject(
                "cabinet-bytes", principal,
                f"{stored_bytes} + {new_bytes} cabinet bytes would "
                f"exceed the {quota.max_cabinet_bytes}-byte quota")

    # -- introspection --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic JSON-able state for the admin ``stat`` op."""
        buckets = {}
        for principal in sorted(self._buckets):
            bucket = self._buckets[principal]
            buckets[principal] = {
                "level": round(bucket.peek(self.kernel.now), 6),
                "capacity": bucket.capacity,
                "rate": bucket.rate,
            }
        return {
            "admitted": self.admitted,
            "rejections": dict(sorted(self.rejections.items())),
            "buckets": buckets,
            "quotas": {p: self.config.quotas[p].to_config()
                       for p in sorted(self.config.quotas)},
            "default_quota": (self.config.default_quota.to_config()
                              if self.config.default_quota else None),
            "overflow": self.config.overflow,
            "queue_limits": (asdict(self.config.queue_limits)
                             if self.config.queue_limits else None),
        }
