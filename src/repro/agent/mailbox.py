"""Agent mailboxes: where the firewall parks delivered briefcases.

A mailbox decouples delivery (which happens inside whatever process the
sender or the firewall is running) from consumption (the owning agent's
blocking ``await``).  Receives support an optional *match predicate* —
``meet`` uses it to wait for the reply carrying its correlation token
without disturbing other queued messages — and an optional timeout.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.errors import CommTimeoutError
from repro.firewall.message import Message
from repro.sim.eventloop import Event, Kernel

MatchFn = Callable[[Message], bool]


class Mailbox:
    """FIFO of messages with predicate-based blocking receive."""

    def __init__(self, kernel: Kernel, capacity: Optional[int] = None):
        self.kernel = kernel
        self.capacity = capacity
        self._queue: List[Message] = []
        self._waiters: List[Tuple[Optional[MatchFn], Event]] = []
        self.delivered_count = 0
        self.dropped_count = 0
        self.closed = False

    def __len__(self) -> int:
        return len(self._queue)

    # -- delivery (called by the firewall / wrapper machinery) --------------------

    def deliver(self, message: Message) -> bool:
        """Hand a message to this mailbox; returns False if dropped."""
        if self.closed:
            self.dropped_count += 1
            return False
        # Wake the first waiter whose predicate accepts the message.
        for i, (match, event) in enumerate(self._waiters):
            if match is None or match(message):
                del self._waiters[i]
                self.delivered_count += 1
                event.succeed(message)
                return True
        if self.capacity is not None and len(self._queue) >= self.capacity:
            self.dropped_count += 1
            return False
        self._queue.append(message)
        self.delivered_count += 1
        return True

    # -- consumption (yield from inside the owning agent's process) ----------------

    def receive(self, timeout: Optional[float] = None,
                match: Optional[MatchFn] = None):
        """Blocking receive: ``message = yield from mailbox.receive()``.

        Raises :class:`CommTimeoutError` when ``timeout`` elapses first.
        A receive that leaves without its message — timed out,
        interrupted, or closed with its world — withdraws its waiter on
        the way out, so the next matching message queues for the next
        receive instead of waking one nobody waits on.
        """
        message = self._take_queued(match)
        if message is not None:
            yield self.kernel.timeout(0)
            return message
        waiter = self.kernel.event()
        entry = (match, waiter)
        self._waiters.append(entry)
        try:
            if timeout is None:
                message = yield waiter
            else:
                expiry = self.kernel.timeout(timeout)
                fired = yield self.kernel.any_of([waiter, expiry])
                message = fired.get(waiter)
                if message is None:
                    raise CommTimeoutError(
                        f"no matching message within {timeout:g}s")
            return message
        finally:
            if message is None and self._withdraw(entry):
                # Nothing can trigger the waiter now: forget whom it
                # would wake (the AnyOf over it), so the two are no
                # reference cycle.
                waiter.callbacks.clear()

    def try_receive(self, match: Optional[MatchFn] = None
                    ) -> Optional[Message]:
        """Non-blocking receive; None when nothing matches."""
        return self._take_queued(match)

    def _withdraw(self, entry: Tuple[Optional[MatchFn], Event]) -> bool:
        """Remove one receive's waiter entry, found by identity; False
        when it was no longer waiting (a delivery or :meth:`close` took
        it, and triggered its event)."""
        for i, waiting in enumerate(self._waiters):
            if waiting is entry:
                del self._waiters[i]
                return True
        return False

    def _take_queued(self, match: Optional[MatchFn]) -> Optional[Message]:
        for i, message in enumerate(self._queue):
            if match is None or match(message):
                return self._queue.pop(i)
        return None

    def close(self) -> None:
        """Stop accepting deliveries and fail all pending waiters."""
        self.closed = True
        waiters, self._waiters = self._waiters, []
        for _match, event in waiters:
            event.fail(CommTimeoutError("mailbox closed"))
        self.dropped_count += len(self._queue)
        self._queue.clear()
