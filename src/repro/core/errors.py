"""Exception hierarchy for the TAX agent system.

Errors carry a retryability classification used by the transport retry
machinery (:mod:`repro.core.retry`): a class-level ``transient``
attribute that is ``True`` for failures a retry may fix (link flaps,
hosts mid-restart, queue timeouts), ``False`` for failures no retry can
fix (policy denials, missing routes, bad payloads), and ``None`` for
"unknown" — in which case :func:`is_transient` keeps walking the
``__cause__`` chain, so a :class:`MigrationError` wrapping a
``LinkDownError`` classifies by its cause.
"""

from __future__ import annotations

from typing import List, Optional, Set


class TaxError(Exception):
    """Base class for all TAX errors."""

    #: Retryability: True (transient), False (permanent), None (unknown —
    #: classify by the exception's cause chain).
    transient: Optional[bool] = None


class BriefcaseError(TaxError):
    """Malformed briefcase operation."""


class FolderNotFoundError(BriefcaseError, KeyError):
    """A briefcase does not contain the requested folder."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"no folder named {self.name!r} in briefcase"


class CodecError(TaxError):
    """A briefcase could not be encoded or decoded."""


class MalformedBriefcaseError(CodecError):
    """Wire bytes are truncated, corrupt, or structurally implausible.

    No retry can repair a broken payload, so this classifies permanent;
    receivers quarantine the offending message instead of crashing.
    """

    transient = False


class BriefcaseTooLargeError(CodecError):
    """A briefcase exceeds the configured wire limits (size or counts)."""

    transient = False


class UriSyntaxError(TaxError, ValueError):
    """An agent URI does not conform to the Figure-2 EBNF grammar."""


class IdentityError(TaxError, ValueError):
    """An invalid principal or agent identifier."""


class TransientError(TaxError):
    """A failure that may well succeed if the operation is retried."""

    transient = True


class PermanentError(TaxError):
    """A failure that no amount of retrying can fix."""

    transient = False


class OverloadError(TransientError):
    """Admission control shed this work; backing off and retrying may
    succeed once the pressure drops (the governor's rejections are
    deliberately transient so the PR 2 :class:`RetryPolicy` absorbs
    them)."""


class QueueFullError(OverloadError):
    """A bounded message queue is at capacity and the overflow policy
    rejects new arrivals."""


class QuotaExceededError(OverloadError):
    """A per-principal quota (message rate, bytes in flight, resident
    agents, cabinet bytes) is exhausted."""


class CircuitOpenError(OverloadError):
    """A circuit breaker is open: the target failed repeatedly and calls
    are fast-failed until the cooldown elapses."""


class AccessDeniedError(PermanentError):
    """The firewall's reference monitor rejected an operation."""


class TrustError(AccessDeniedError):
    """A signature was missing, invalid, or from an untrusted principal."""


class AgentNotFoundError(TaxError):
    """No registered agent matches the given address."""

    # Absent agents may still arrive (messages are parked for them), so
    # a retry is meaningful; unknown *hosts* raise this too, which is
    # permanent — the cause chain disambiguates in practice, so leave
    # the classification unknown.


class AmbiguousAgentError(PermanentError):
    """A partially-specified address matched more than one agent."""


class CommTimeoutError(TransientError):
    """A queued message or a blocking receive timed out."""


class VMError(PermanentError):
    """A virtual machine failed to host or execute an agent."""


class UnsupportedPayloadError(VMError):
    """The VM cannot execute this kind of agent payload."""


class MigrationError(TaxError):
    """An agent's ``go``/``spawn`` could not be completed."""


class LaunchRejected(MigrationError):
    """The destination VM answered a launch with a nack; the text is the
    VM's reason.  Nothing landed and the landing slot is already free —
    unlike any other failure of a launch, after which the agent may be
    running there with only the ack lost."""


class ServiceError(TaxError):
    """A service agent (ag_exec, ag_fs, ...) reported a failure."""


class SandboxViolation(VMError):
    """Sandboxed agent code exceeded its budget or touched a denied capability."""


def is_transient(exc: BaseException, max_depth: int = 16) -> bool:
    """True when ``exc`` classifies as retryable.

    Walks the ``__cause__``/``__context__`` chain until an exception
    declares itself (``transient = True``/``False``); an undeclared
    chain classifies as permanent — retrying an unknown failure is the
    dangerous default.
    """
    # Cycle detection keys on identity deliberately: exception equality
    # is not well-defined and hashing arbitrary exceptions can raise.
    # ``pinned`` holds a strong reference to every visited exception for
    # the duration of the walk, so no id can be recycled mid-traversal
    # even if a hostile ``transient`` property mutates the chain.
    seen: Set[int] = set()
    pinned: List[BaseException] = []
    current: Optional[BaseException] = exc
    for _ in range(max_depth):
        if current is None or id(current) in seen:  # lint: disable=DET005
            break
        seen.add(id(current))  # lint: disable=DET005
        pinned.append(current)
        verdict = getattr(current, "transient", None)
        if verdict is not None:
            return bool(verdict)
        current = current.__cause__ or current.__context__
    return False
