"""Retry policies: exponential backoff with deterministic jitter.

The transport layer (``AgentContext.send``/``meet``/``go``/``spawn_to``)
retries *transient* failures (see :func:`repro.core.errors.is_transient`)
under a :class:`RetryPolicy`.  Jitter is drawn from a seeded
:class:`repro.sim.rng.RandomStream`-compatible source so identical seeds
replay identical retry schedules — a hard requirement for the chaos
harness's byte-for-byte reproducibility.

A policy travels with a mobile agent as a plain JSON folder
(:data:`repro.core.wellknown.RETRY`); the destination VM re-installs it
at launch with a jitter stream derived from the new instance id, so the
schedule stays deterministic across hops without shipping RNG state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Protocol

from repro.core.errors import BriefcaseError


class JitterSource(Protocol):
    """Anything that can draw a uniform float (a seeded RandomStream)."""

    def uniform(self, low: float, high: float) -> float: ...


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry a transient failure.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retries entirely.  The delay before attempt ``n`` (n >= 1, i.e.
    before the first *re*-try) is::

        min(base_delay * multiplier ** (n - 1), max_delay)

    scaled by a uniform factor in ``[1 - jitter, 1 + jitter]``.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    @property
    def retries(self) -> int:
        """Number of *re*-tries after the first attempt."""
        return self.max_attempts - 1

    def delay(self, retry_index: int,
              rng: Optional[JitterSource] = None) -> float:
        """Backoff before the ``retry_index``-th retry (0-based).

        ``rng`` is anything with a ``uniform(low, high)`` method (a
        :class:`repro.sim.rng.RandomStream`); without one the delay is
        the deterministic midpoint (no jitter).
        """
        if retry_index < 0:
            raise ValueError("retry_index must be non-negative")
        base = min(self.base_delay * self.multiplier ** retry_index,
                   self.max_delay)
        if rng is not None and self.jitter:
            return base * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return base

    # -- travelling with a briefcase -------------------------------------------

    def to_config(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_config(cls, config: Optional[Dict[str, Any]]
                    ) -> Optional["RetryPolicy"]:
        """The policy a carried config names (None for no config); a
        config :func:`install_retry` could not have written is a
        :class:`BriefcaseError`."""
        if config is None:
            return None
        try:
            int(config.get("seed", 0))  # the jitter seed must read too
            return cls(**{f: config[f] for f in
                          ("max_attempts", "base_delay", "multiplier",
                           "max_delay", "jitter") if f in config})
        except (AttributeError, TypeError, ValueError) as exc:
            raise BriefcaseError(f"bad retry policy: {exc}") from exc


def install_retry(briefcase: Any, policy: "RetryPolicy",
                  seed: int = 0) -> None:
    """Attach ``policy`` to an agent briefcase (picked up at VM launch).

    ``seed`` feeds the per-instance jitter stream at each destination.
    """
    from repro.core import wellknown
    config = policy.to_config()
    config["seed"] = int(seed)
    briefcase.put(wellknown.RETRY, config)


#: Defaults used by the chaos harness and the resilient experiments.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Explicit "first attempt only" policy (identical to no policy at all).
NO_RETRY = RetryPolicy(max_attempts=1)
