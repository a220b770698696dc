"""A small discrete-event simulation kernel.

The kernel is a classic event-heap design in the style of SimPy: virtual
time only advances when the event at the head of the heap is processed, and
concurrency is expressed with generator-based *processes*.

A process is an ordinary Python generator that yields :class:`Event`
instances.  When the yielded event triggers, the kernel resumes the
generator, sending the event's value in (or throwing its exception).  A
:class:`Process` is itself an event that triggers when the generator
returns, so processes can wait for each other by yielding the process
object.

Example::

    kernel = Kernel()

    def worker(kernel):
        yield kernel.timeout(5.0)
        return "done"

    proc = kernel.spawn(worker(kernel))
    kernel.run()
    assert kernel.now == 5.0 and proc.value == "done"

The kernel is deliberately single-threaded and deterministic: events
scheduled for the same instant fire in scheduling order.

Hot paths (see ``docs/performance.md`` §2): event classes use
``__slots__``, and every event is fired from one pop-and-fire loop,
:meth:`Kernel._dispatch` — :meth:`Kernel.run` and
:meth:`Kernel.run_until` only pass it their bounds.  Per event the loop
pops the heap, checks the instant, advances the clock, counts — and,
while telemetry is on, notes the heap depth — and fires: one Python
frame per *dispatch* (``_fire``), telemetry on or off.  The kernel's
two series are written once, when the loop returns.  There is no second
regime to choose — a fast path stays only where a benchmark workload
reaches it.

The frames around a dispatch are per *creation* and per *resume*, and
the three hot event kinds write their lives out: ``Timeout.__init__``
and ``Process.__init__`` store the four :class:`Event` fields and push
themselves, the process bootstrap is built with its callback in place,
``succeed`` / ``fail`` push, and ``Process._resume`` reads fields and
appends itself to the event it was handed.  ``triggered``, ``ok``,
``add_callback`` and ``Process._wait_for`` remain the API and say what
the written-out lines mean; the hot methods do not call them.  The
rule: every way onto the heap pushes ``(now + delay, _sequence, event)``
and bumps ``_sequence`` once, in that order, so scheduling order is
firing order and nothing fires earlier or later than before.  The one
exception keeps the rule's order: :meth:`Kernel.hold_place` bumps
``_sequence`` without pushing, and :meth:`Kernel.spawn_in` pushes a
process bootstrap at that held sequence while the loop has not fired
past it (the loop notes the sequence of each event it pops), so the
process starts where it would have, had it been spawned when the place
was held.

Tier-1 holds the loop to one firing order with and without bounds and
telemetry, and each primitive to a frame budget
(``tests/test_sim_eventloop.py``), and the loop to the pre-optimisation
kernel in ``tests/oracles/kernel.py``.
"""

from __future__ import annotations

import traceback
from functools import partial
from heapq import heappop, heappush
from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Tuple)

from repro.obs.telemetry import Telemetry
from repro.sim.errors import (
    EventAlreadyTriggered,
    Interrupt,
    SimulationError,
    StopProcess,
)

#: Sentinel for "event has not produced a value yet".
_PENDING = object()

#: Ambient runtime sanitizer (see :mod:`repro.analysis.sanitizer`).
#: When set, every kernel constructed afterwards carries it as
#: ``kernel.sanitizer`` and the agent-context taps feed it briefcase
#: observations.  Kept here (not in repro.analysis) so the simulation
#: layer never imports the analysis layer.
_ambient_sanitizer: Optional[Any] = None


def set_ambient_sanitizer(sanitizer: Optional[Any]) -> Optional[Any]:
    """Install the ambient sanitizer; returns the previous one."""
    global _ambient_sanitizer
    previous = _ambient_sanitizer
    _ambient_sanitizer = sanitizer
    return previous


class Event:
    """A happening at a point in simulated time.

    Events start *pending*.  They are *triggered* exactly once, either with
    :meth:`succeed` (carrying a value) or :meth:`fail` (carrying an
    exception).  Callbacks attached before triggering run when the kernel
    processes the event; callbacks attached afterwards run immediately.
    """

    __slots__ = ("kernel", "callbacks", "_value", "_exception")

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled onto the event heap."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once the kernel has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's value.  Raises if the event failed or is pending."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._value = value
        kernel = self.kernel
        heappush(kernel._heap, (kernel._now, kernel._sequence, self))
        kernel._sequence += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING or self._exception is not None:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        kernel = self.kernel
        heappush(kernel._heap, (kernel._now, kernel._sequence, self))
        kernel._sequence += 1
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _fire(self) -> None:
        """Hook run by the kernel when the event's turn comes.

        The callback loop is written out here and in
        :meth:`Timeout._fire` (rather than shared through a helper) to
        save one method call per dispatched event on the kernel hot
        path.
        """
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or ():
            callback(self)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.kernel.now:g}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    Unlike manually-triggered events, a timeout is scheduled at
    construction but does not count as *triggered* until its instant
    arrives (its value is assigned when it fires).
    """

    __slots__ = ("delay", "_deferred_value")

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None):
        # ``not >=`` rather than ``<``: NaN must not reach the heap,
        # where it orders against nothing and would become the clock.
        if not delay >= 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.kernel = kernel
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self.delay = delay
        self._deferred_value = value
        heappush(kernel._heap, (kernel._now + delay, kernel._sequence, self))
        kernel._sequence += 1

    def _fire(self) -> None:
        if self._value is _PENDING and self._exception is None:
            self._value = self._deferred_value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or ():
            callback(self)


class AnyOf(Event):
    """Triggers when the first of ``events`` triggers.

    The value is a dict mapping each already-triggered event to its value
    (in the common case, a single entry).  A failing child fails the
    AnyOf with the same exception.  Once triggered it forgets its
    children (``events`` becomes empty): a child still pending keeps a
    callback into the AnyOf, and the AnyOf must not hold it back.
    """

    __slots__ = ("events",)

    def __init__(self, kernel: "Kernel", events: Iterable[Event]):
        super().__init__(kernel)
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")
        for event in self.events:
            event.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        events, self.events = self.events, ()
        if not event.ok:
            self.fail(event.exception)
            return
        self.succeed({e: e._value for e in events if e.triggered and e.ok})


class AllOf(Event):
    """Triggers when every one of ``events`` has triggered.

    The value is a dict mapping each event to its value, in the original
    order.  A failing child fails the AllOf immediately.  Like
    :class:`AnyOf`, a triggered AllOf holds no children.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, kernel: "Kernel", events: Iterable[Event]):
        super().__init__(kernel)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.events = ()
            self.fail(event.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            events, self.events = self.events, ()
            self.succeed({e: e._value for e in events})


class Process(Event):
    """A running generator, driven by the events it yields.

    The process object is itself an event: it triggers with the
    generator's return value when the generator finishes, or fails with
    the exception that escaped it.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(self, kernel: "Kernel", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"spawn() requires a generator, got {generator!r}")
        self.kernel = kernel
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        kernel._live[self] = None
        # Kick off the process at the current instant: an event already
        # succeeded with None, whose one callback is the first resume.
        bootstrap = Event.__new__(Event)
        bootstrap.kernel = kernel
        bootstrap.callbacks = [self._resume]
        bootstrap._value = None
        bootstrap._exception = None
        heappush(kernel._heap, (kernel._now, kernel._sequence, bootstrap))
        kernel._sequence += 1

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process is a no-op.  The event the
        process was waiting on keeps its ``_resume`` callback (callbacks
        cannot be detached), but :meth:`_resume` ignores wake-ups from
        any event the process is no longer waiting on, so the stale
        event firing later cannot spuriously resume the generator.
        """
        if self.triggered:
            return
        wake = Event(self.kernel)
        wake.add_callback(self._interrupted)
        wake.succeed(cause)

    def _interrupted(self, wake: Event) -> None:
        # A bound method, not a closure over the process: a failure's
        # traceback keeps this frame's function, and a closure would
        # hold the process that holds the failure.
        self._throw(Interrupt(wake._value))

    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return
        waiting_on = self._waiting_on
        if waiting_on is not None and event is not waiting_on:
            # Stale wake-up: the process was interrupted (or re-waited)
            # while this event was pending and has since moved on to a
            # different target.  Resuming here would send the wrong
            # value into the generator.
            return
        self._waiting_on = None
        try:
            # ``event`` has fired, so it is triggered: it succeeded
            # unless it carries an exception.
            if event._exception is None:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._exception)
        except StopIteration as stop:
            del self.kernel._live[self]
            self.succeed(stop.value)
            return
        except StopProcess as stop:
            del self.kernel._live[self]
            self.generator.close()
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - escaping process error
            kernel = self.kernel
            del kernel._live[self]
            kernel._failed.append(self)
            self.fail(exc)
            return
        if isinstance(target, Event) and target.kernel is self.kernel:
            # :meth:`_wait_for`, written out for the one case a running
            # simulation takes.
            self._waiting_on = target
            callbacks = target.callbacks
            if callbacks is None:
                self._resume(target)
            else:
                callbacks.append(self._resume)
        else:
            self._wait_for(target)

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            del self.kernel._live[self]
            self.succeed(stop.value)
            return
        except StopProcess as stop:
            del self.kernel._live[self]
            self.generator.close()
            self.succeed(stop.value)
            return
        except BaseException as escaped:  # noqa: BLE001
            kernel = self.kernel
            del kernel._live[self]
            kernel._failed.append(self)
            self.fail(escaped)
            return
        finally:
            # The generator's frames may keep this one as their
            # ``f_back`` (Python 3.12 does), and a traceback keeps
            # theirs: holding ``exc`` past the throw would close the
            # loop exception → traceback → frames → ``exc``.
            del exc
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._throw(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target.kernel is not self.kernel:
            self._throw(SimulationError(
                f"process {self.name!r} yielded event from another kernel"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def __repr__(self) -> str:
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"


class Kernel:
    """The event loop: a heap of (time, sequence, event) triples.

    ``processed_events`` and the two series ``kernel.events_dispatched``
    / ``kernel.heap_depth`` count what owners scheduled, not what it
    meant: an owner that needs fewer events for the same behaviour (a
    pending queue arms one expiry timer where it once ran a process per
    parked message) reads lower here and nowhere else.

    The kernel knows its live processes, in spawn order, and the ones
    that failed: a process enters the first in ``Process.__init__`` and
    leaves it where its generator finishes, a dict write each way.
    :meth:`close` ends the world with them (see "World lifecycle" in
    ``docs/architecture.md``).
    """

    def __init__(self, start_time: float = 0.0,
                 telemetry: Optional[Telemetry] = None):
        self._now = float(start_time)
        #: Never rebound: :meth:`_dispatch` holds the list in a local
        #: while callbacks post to it.
        self._heap: List[tuple] = []
        self._sequence = 0
        #: The sequence number of the latest event popped (what
        #: :meth:`fired_past` reads).
        self._fired = -1
        self._running = False
        self._closed = False
        #: Processes whose generators have not finished, in spawn order
        #: (a dict used as an ordered set), and the processes that failed.
        self._live: Dict[Process, None] = {}
        self._failed: List[Process] = []
        self.processed_events = 0
        #: The deployment's telemetry; disabled by default so plain
        #: simulations pay one boolean check per event and nothing else.
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry(enabled=False)
        # ``getattr(self, "_now")`` through ``partial``: the clock every
        # span, instant and flight record reads runs no Python frame.
        self.telemetry.bind_clock(partial(getattr, self, "_now"))
        #: ``kernel.events_dispatched`` and ``kernel.heap_depth``, held
        #: from the first :meth:`_dispatch` that fired an event with
        #: telemetry on.
        self._dispatch_series: Optional[tuple] = None
        #: Runtime briefcase sanitizer, or None (the usual case); agent
        #: contexts check this once per tap.
        self.sanitizer: Optional[Any] = _ambient_sanitizer

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- event construction -------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event, to be triggered manually."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    # -- held places ---------------------------------------------------------

    def hold_place(self) -> Tuple[float, int]:
        """The place in the firing order an event scheduled now would
        take, kept free: ``(instant, sequence)``.  Everything scheduled
        later fires after it.  :meth:`spawn_in` may fill it while
        :meth:`fired_past` is False."""
        place = (self._now, self._sequence)
        self._sequence += 1
        return place

    def fired_past(self, place: Tuple[float, int]) -> bool:
        """True once an event at ``place`` would have fired: the clock
        has left its instant, or an event scheduled after it has fired."""
        when, sequence = place
        return self._now > when or self._fired > sequence

    def spawn_in(self, place: Tuple[float, int], generator: Generator,
                 name: str = "") -> Process:
        """Start a process whose first step fires at ``place`` (held by
        :meth:`hold_place`), as if it had been spawned there."""
        if self.fired_past(place):
            raise SimulationError(f"place {place!r} has already fired")
        following, self._sequence = self._sequence, place[1]
        try:
            return Process(self, generator, name=name)
        finally:
            self._sequence = following

    # -- execution -----------------------------------------------------------

    def _dispatch(self, stop_event: Optional[Event] = None,
                  until: Optional[float] = None,
                  max_events: Optional[int] = None) -> None:
        """Pop and fire events until the heap drains, ``stop_event``
        triggers, ``max_events`` have fired, or the next event lies
        beyond ``until`` — only the last moves the clock (to ``until``,
        never backwards).

        With telemetry on, the heap depth after each pop is kept in a
        local; it and the count of events popped reach the registry
        once, when the loop returns: a reader inside a callback sees the
        two kernel series as of the previous return.
        """
        if self._running:
            raise SimulationError("kernel is already running (re-entrant run)")
        if self._closed:
            raise SimulationError("kernel is closed: its world has ended")
        self._running = True
        heap = self._heap
        pop = heappop
        telemetry_on = self.telemetry.enabled
        count = start = self.processed_events
        limit = None if max_events is None else count + max_events
        depth = 0
        try:
            while heap:
                if stop_event is not None and (
                        stop_event._value is not _PENDING
                        or stop_event._exception is not None):
                    break
                if limit is not None and count >= limit:
                    break
                if until is not None and heap[0][0] > until:
                    if until > self._now:
                        self._now = until
                    break
                when, sequence, event = pop(heap)
                if when < self._now:
                    raise SimulationError("event scheduled in the past")
                self._now = when
                self._fired = sequence
                count += 1
                if telemetry_on:
                    depth = len(heap)
                event._fire()
        finally:
            self.processed_events = count
            self._running = False
            if telemetry_on and count > start:
                self._record_dispatched(count - start, depth)

    def _record_dispatched(self, popped: int, depth: int) -> None:
        """Write the loop's two series, once per :meth:`_dispatch`:
        the events it popped, and the heap depth after the last pop.
        """
        series = self._dispatch_series
        if series is None:
            metrics = self.telemetry.metrics
            series = self._dispatch_series = (
                metrics.counter("kernel.events_dispatched").labels(),
                metrics.gauge("kernel.heap_depth").labels())
        events_dispatched, heap_depth = series
        events_dispatched.value = (events_dispatched.value or 0) + popped
        heap_depth.value = depth

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the heap is empty, ``until`` is reached, or
        ``max_events`` events have been processed.  Returns the clock,
        which ends at ``until`` when the heap drained before it.
        """
        self._dispatch(until=until, max_events=max_events)
        if until is not None and not self._heap and until > self._now:
            self._now = until
        return self._now

    def run_until(self, event: Event, until: Optional[float] = None) -> None:
        """Run only until ``event`` triggers (or the deadline/heap ends).

        Unlike :meth:`run`, this leaves later-scheduled events (stale
        timeouts, idle service loops) unprocessed, so the clock reflects
        when the awaited event actually happened.
        """
        self._dispatch(stop_event=event, until=until)

    def run_process(self, generator: Generator, name: str = "",
                    until: Optional[float] = None) -> Any:
        """Spawn ``generator``, run until it finishes, return its result.

        Convenience for the very common "run one top-level scenario"
        pattern.  Raises the process's exception if it failed, and
        :class:`SimulationError` if the kernel drained before the process
        finished (deadlock).
        """
        proc = self.spawn(generator, name=name)
        self.run_until(proc, until=until)
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish "
                f"(deadlock or until={until!r} too small)")
        return proc.value

    # -- the end of the world ------------------------------------------------

    def close(self) -> None:
        """End this world, so reference counting can free it.

        Every live generator is closed, in spawn order: its ``finally``
        blocks run now and once, not whenever the collector gets to it.
        A process spawned while closing is closed too, and nothing is
        fired.  An exception escaping a closing generator becomes that
        process's failure instead of leaving ``close``.  Every process
        ends triggered (``is_alive`` is False), waiting on nothing and
        with nobody to wake.  Failed processes keep their exception and
        where it was raised, but their traceback frames drop their
        locals.  The heap goes with the subscriptions of the events on
        it, the telemetry clock stops at the final instant, and the
        kernel forgets its processes.  A later ``run`` / ``run_until``
        / ``run_process`` raises :class:`SimulationError`; the clock
        and ``processed_events`` stay readable.  Closing twice is a
        no-op.
        """
        if self._running:
            raise SimulationError("cannot close a running kernel")
        if self._closed:
            return
        self._closed = True
        live, failed = self._live, self._failed
        while live:
            process = next(iter(live))
            del live[process]
            process._waiting_on = None
            try:
                process.generator.close()
            except BaseException as exc:  # noqa: BLE001 - kept as failure
                process._exception = exc
                failed.append(process)
            if process._value is _PENDING:
                process._value = None
            process.callbacks = []
        for process in failed:
            _clear_traceback_frames(process._exception)
        self._failed = []
        for _when, _seq, event in self._heap:
            event.callbacks = []
        self._heap.clear()
        now = self._now
        self.telemetry.bind_clock(lambda: now)


def _clear_traceback_frames(exc: Optional[BaseException]) -> None:
    """Drop the locals of every frame in ``exc``'s traceback and in the
    tracebacks of the exceptions it was raised from or during — and of
    the finished frames each was called from, which a traceback frame
    keeps as ``f_back``.  The file and line of each frame stay."""
    pending: List[Optional[BaseException]] = [exc]
    chain: List[BaseException] = []
    cleared: set = set()    # frames (hashed by identity), held here
    while pending:
        exc = pending.pop()
        if exc is None or any(exc is seen for seen in chain):
            continue
        chain.append(exc)
        traceback.clear_frames(exc.__traceback__)
        tb = exc.__traceback__
        while tb is not None:
            frame = tb.tb_frame.f_back
            while frame is not None and frame not in cleared:
                cleared.add(frame)
                try:
                    frame.clear()
                except RuntimeError:    # still executing, and its callers
                    break
                frame = frame.f_back
            tb = tb.tb_next
        pending += (exc.__cause__, exc.__context__)
