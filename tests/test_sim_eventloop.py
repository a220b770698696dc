"""Unit tests for the discrete-event kernel."""

import os
import sys

import pytest

from repro.sim.errors import (
    EventAlreadyTriggered,
    Interrupt,
    SimulationError,
    StopProcess,
)
from repro.sim.eventloop import Kernel


def drain(kernel, until=None):
    return kernel.run(until=until)


class TestEventBasics:
    def test_new_event_is_pending(self, kernel):
        event = kernel.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_carries_value(self, kernel):
        event = kernel.event()
        event.succeed(42)
        drain(kernel)
        assert event.ok and event.value == 42

    def test_fail_carries_exception(self, kernel):
        event = kernel.event()
        event.fail(ValueError("boom"))
        drain(kernel)
        assert not event.ok
        with pytest.raises(ValueError):
            _ = event.value

    def test_double_trigger_rejected(self, kernel):
        event = kernel.event()
        event.succeed(1)
        with pytest.raises(EventAlreadyTriggered):
            event.succeed(2)
        with pytest.raises(EventAlreadyTriggered):
            event.fail(RuntimeError())

    def test_fail_requires_exception_instance(self, kernel):
        event = kernel.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, kernel):
        event = kernel.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_callback_after_processing_runs_immediately(self, kernel):
        event = kernel.event()
        event.succeed("x")
        drain(kernel)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestTimeout:
    def test_timeout_advances_clock(self, kernel):
        kernel.timeout(5.0)
        drain(kernel)
        assert kernel.now == 5.0

    def test_timeouts_fire_in_order(self, kernel):
        order = []
        kernel.timeout(3).add_callback(lambda e: order.append(3))
        kernel.timeout(1).add_callback(lambda e: order.append(1))
        kernel.timeout(2).add_callback(lambda e: order.append(2))
        drain(kernel)
        assert order == [1, 2, 3]

    def test_same_instant_fifo(self, kernel):
        order = []
        for i in range(5):
            kernel.timeout(1.0).add_callback(
                lambda e, i=i: order.append(i))
        drain(kernel)
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.timeout(-1)

    def test_nan_delay_rejected(self, kernel):
        # NaN is neither less nor greater than anything: on the heap it
        # breaks the ordering silently, and popped it becomes the clock.
        with pytest.raises(ValueError, match="negative timeout delay: nan"):
            kernel.timeout(float("nan"))
        assert not kernel._heap
        never = kernel.timeout(float("inf"))    # "never" stays legal
        kernel.timeout(1)
        kernel.run(until=10)
        assert kernel.now == 10 and not never.triggered

    def test_timeout_value_passthrough(self, kernel):
        event = kernel.timeout(1, value="payload")
        drain(kernel)
        assert event.value == "payload"

    def test_run_until_caps_clock(self, kernel):
        kernel.timeout(10)
        kernel.run(until=4)
        assert kernel.now == 4

    def test_run_until_with_empty_heap_advances(self, kernel):
        kernel.run(until=7)
        assert kernel.now == 7

    def test_run_until_in_the_past_keeps_the_clock(self, kernel):
        # Regression: with a later event still pending, an ``until``
        # behind the clock used to move the clock backwards.
        kernel.timeout(5)
        kernel.timeout(10)
        kernel.run(until=6)
        assert kernel.now == 6
        kernel.run(until=2)
        assert kernel.now == 6
        assert kernel.processed_events == 1


class TestProcess:
    def test_process_returns_value(self, kernel):
        def proc():
            yield kernel.timeout(2)
            return "done"
        assert kernel.run_process(proc()) == "done"
        assert kernel.now == 2

    def test_sequential_waits_accumulate(self, kernel):
        def proc():
            yield kernel.timeout(1)
            yield kernel.timeout(2)
            yield kernel.timeout(3)
        kernel.run_process(proc())
        assert kernel.now == 6

    def test_process_receives_event_value(self, kernel):
        def proc():
            value = yield kernel.timeout(1, value="hello")
            return value
        assert kernel.run_process(proc()) == "hello"

    def test_exception_propagates_to_run_process(self, kernel):
        def proc():
            yield kernel.timeout(1)
            raise RuntimeError("inner")
        with pytest.raises(RuntimeError, match="inner"):
            kernel.run_process(proc())

    def test_failed_event_thrown_into_process(self, kernel):
        trigger = kernel.event()

        def proc():
            try:
                yield trigger
            except ValueError:
                return "caught"
        process = kernel.spawn(proc())
        trigger.fail(ValueError("x"))
        drain(kernel)
        assert process.value == "caught"

    def test_process_waits_for_process(self, kernel):
        def child():
            yield kernel.timeout(5)
            return "child-result"

        def parent():
            result = yield kernel.spawn(child())
            return result
        assert kernel.run_process(parent()) == "child-result"
        assert kernel.now == 5

    def test_yielding_non_event_fails_process(self, kernel):
        def proc():
            yield 42
        with pytest.raises(SimulationError, match="non-event"):
            kernel.run_process(proc())

    def test_yielding_foreign_event_fails(self, kernel):
        other = Kernel()

        def proc():
            yield other.timeout(1)
        with pytest.raises(SimulationError, match="another kernel"):
            kernel.run_process(proc())

    def test_spawn_requires_generator(self, kernel):
        with pytest.raises(TypeError):
            kernel.spawn(lambda: None)

    def test_stop_process_terminates_with_value(self, kernel):
        def proc():
            yield kernel.timeout(1)
            raise StopProcess("early")
            yield kernel.timeout(99)  # pragma: no cover
        assert kernel.run_process(proc()) == "early"
        assert kernel.now == 1

    def test_interrupt_raises_inside_process(self, kernel):
        def victim():
            try:
                yield kernel.timeout(100)
            except Interrupt as interrupt:
                return f"interrupted:{interrupt.cause}"
        process = kernel.spawn(victim())

        def killer():
            yield kernel.timeout(3)
            process.interrupt("bye")
        kernel.spawn(killer())
        kernel.run_until(process)
        assert process.value == "interrupted:bye"
        assert kernel.now == pytest.approx(3)

    def test_interrupt_finished_process_is_noop(self, kernel):
        def quick():
            yield kernel.timeout(1)
            return "ok"
        process = kernel.spawn(quick())
        drain(kernel)
        process.interrupt("late")  # must not raise
        assert process.value == "ok"

    def test_is_alive_tracks_lifecycle(self, kernel):
        def proc():
            yield kernel.timeout(1)
        process = kernel.spawn(proc())
        assert process.is_alive
        drain(kernel)
        assert not process.is_alive

    def test_run_process_deadlock_detected(self, kernel):
        def stuck():
            yield kernel.event()  # never triggered
        with pytest.raises(SimulationError, match="did not finish"):
            kernel.run_process(stuck())


class TestCombinators:
    def test_any_of_first_wins(self, kernel):
        def proc():
            fast = kernel.timeout(1, value="fast")
            slow = kernel.timeout(5, value="slow")
            done = yield kernel.any_of([fast, slow])
            return done
        result = kernel.run_process(proc())
        assert list(result.values()) == ["fast"]
        assert kernel.now == 1

    def test_any_of_empty_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.any_of([])

    def test_all_of_waits_for_all(self, kernel):
        def proc():
            events = [kernel.timeout(d, value=d) for d in (1, 3, 2)]
            done = yield kernel.all_of(events)
            return [done[e] for e in events]
        assert kernel.run_process(proc()) == [1, 3, 2]
        assert kernel.now == 3

    def test_all_of_empty_succeeds_immediately(self, kernel):
        def proc():
            done = yield kernel.all_of([])
            return done
        assert kernel.run_process(proc()) == {}

    def test_all_of_fails_on_child_failure(self, kernel):
        trigger = kernel.event()

        def proc():
            yield kernel.all_of([kernel.timeout(1), trigger])
        process = kernel.spawn(proc())
        trigger.fail(KeyError("nope"))
        drain(kernel)
        assert not process.ok

    def test_run_until_stops_at_event(self, kernel):
        def quick():
            yield kernel.timeout(2)
            return "x"
        kernel.timeout(100)  # would drag the clock if drained
        process = kernel.spawn(quick())
        kernel.run_until(process)
        assert process.value == "x"
        assert kernel.now == 2

    def test_run_until_deadline_in_the_past_keeps_the_clock(self, kernel):
        # Regression: same backwards step as ``run(until=...)``.
        kernel.timeout(5)
        late = kernel.timeout(10)
        kernel.run_until(late, until=6)
        assert kernel.now == 6
        kernel.run_until(late, until=2)
        assert kernel.now == 6
        assert not late.triggered


class TestKernelGuards:
    def test_reentrant_run_rejected(self, kernel):
        def proc():
            kernel.run()
            yield kernel.timeout(1)
        with pytest.raises(SimulationError, match="re-entrant"):
            kernel.run_process(proc())

    def test_max_events_bounds_execution(self, kernel):
        for _ in range(10):
            kernel.timeout(1)
        kernel.run(max_events=3)
        assert kernel.processed_events == 3
        # Regression: a bound of zero used to dispatch one event.
        kernel.run(max_events=0)
        assert kernel.processed_events == 3
        assert kernel.run(max_events=10**9) == 1
        assert kernel.processed_events == 10

    def test_processed_events_counted(self, kernel):
        kernel.timeout(1)
        kernel.timeout(2)
        drain(kernel)
        assert kernel.processed_events == 2


class TestInterruptStaleResume:
    """Regression: ``interrupt()`` must not leave the old wait target's
    ``_resume`` callback able to spuriously resume the process.

    Before the fix, the event the process was waiting on at interrupt
    time kept its ``_resume`` callback; when that event later fired, it
    re-entered the generator — at whatever yield the process had moved
    on to — delivering the *stale* event's value.
    """

    def test_stale_timeout_cannot_resume_interrupted_process(self, kernel):
        log = []

        def proc():
            try:
                value = yield kernel.timeout(10.0, "stale")
                log.append(("resumed", value))
            except Interrupt:
                value = yield kernel.timeout(20.0, "fresh")
                log.append(("after-interrupt", value))
            return "done"

        process = kernel.spawn(proc())
        kernel.timeout(1.0).add_callback(lambda _e: process.interrupt("x"))
        drain(kernel)
        # Pre-fix this was [("after-interrupt", "stale")]: the t=10
        # timeout resumed the generator parked on the t=21 one.
        assert log == [("after-interrupt", "fresh")]
        assert process.value == "done"
        assert kernel.now == pytest.approx(21.0)

    def test_stale_event_resume_after_rewait_on_manual_event(self, kernel):
        resumed_with = []

        def proc():
            try:
                yield kernel.timeout(5.0, "doomed")
            except Interrupt:
                pass
            value = yield replacement
            resumed_with.append(value)
            return value

        replacement = kernel.event()
        process = kernel.spawn(proc())
        kernel.timeout(1.0).add_callback(lambda _e: process.interrupt())

        def releaser():
            yield kernel.timeout(30.0)
            replacement.succeed("replacement")
        kernel.spawn(releaser())
        drain(kernel)
        assert resumed_with == ["replacement"]
        assert process.value == "replacement"

    def test_interrupted_process_can_finish_before_stale_event(self, kernel):
        def proc():
            try:
                yield kernel.timeout(50.0)
            except Interrupt:
                return "early"

        process = kernel.spawn(proc())
        kernel.timeout(1.0).add_callback(lambda _e: process.interrupt())
        drain(kernel)  # the t=50 timeout still fires; must be a no-op
        assert process.value == "early"
        assert kernel.now == pytest.approx(50.0)


class TestCombinatorsWithProcessedChildren:
    """AnyOf/AllOf built from events the kernel has already processed."""

    def test_any_of_with_processed_child_triggers(self, kernel):
        done = kernel.timeout(1, value="early")
        drain(kernel)
        assert done.processed

        def proc():
            result = yield kernel.any_of([done, kernel.timeout(10)])
            return result
        result = kernel.run_process(proc())
        assert result == {done: "early"}
        assert kernel.now == pytest.approx(1)  # no wait for the slow leg

    def test_all_of_with_all_children_processed(self, kernel):
        first = kernel.timeout(1, value="a")
        second = kernel.timeout(2, value="b")
        drain(kernel)

        def proc():
            result = yield kernel.all_of([first, second])
            return [result[first], result[second]]
        assert kernel.run_process(proc()) == ["a", "b"]

    def test_all_of_mixed_processed_and_pending(self, kernel):
        early = kernel.timeout(1, value="early")
        drain(kernel)

        def proc():
            late = kernel.timeout(3, value="late")
            result = yield kernel.all_of([early, late])
            return sorted(result.values())
        assert kernel.run_process(proc()) == ["early", "late"]

    def test_any_of_with_processed_failed_child_fails(self, kernel):
        bad = kernel.event()
        bad.fail(KeyError("nope"))
        drain(kernel)

        def proc():
            yield kernel.any_of([bad, kernel.timeout(5)])
        process = kernel.spawn(proc())
        drain(kernel)
        assert not process.ok
        assert isinstance(process.exception, KeyError)


class TestSlotsAndFastDrain:
    def test_event_classes_have_no_instance_dict(self, kernel):
        from repro.sim.eventloop import AllOf, AnyOf, Event, Process, Timeout

        def gen():
            yield kernel.timeout(1)
        instances = [Event(kernel), Timeout(kernel, 1.0),
                     AnyOf(kernel, [kernel.event()]),
                     AllOf(kernel, [kernel.event()]),
                     Process(kernel, gen())]
        for obj in instances:
            with pytest.raises(AttributeError):
                _ = obj.__dict__

    def test_fast_and_slow_dispatch_agree_on_mixed_workload(self):
        from repro.obs.telemetry import Telemetry

        def build_and_run(telemetry=False, **bounds):
            kernel = Kernel(telemetry=Telemetry(enabled=telemetry))
            fired = []

            def worker(tag, delays):
                for delay in delays:
                    yield kernel.timeout(delay)
                    fired.append((kernel.now, tag))
                return tag

            # Deterministic pseudo-random-ish delays, same both runs.
            for tag in range(10):
                delays = [((tag * 7 + step * 3) % 5) + 0.25
                          for step in range(6)]
                kernel.spawn(worker(tag, delays))
            for i in range(500):
                kernel.timeout((i * 37 % 101) / 10.0)
            kernel.run(**bounds)
            return fired, kernel.now, kernel.processed_events

        fast = build_and_run()
        # Neither a bound nor telemetry changes what fires, or when.
        assert build_and_run(max_events=10**9) == fast
        assert build_and_run(telemetry=True) == fast

    def test_drain_survives_batch_growth_past_threshold(self):
        # A callback that posts 500 events: the loop holds the heap
        # across the fire and must see every one of them, in order.
        kernel = Kernel()
        seen = []

        def explode(_event):
            for i in range(500):
                event = kernel.event()
                event.add_callback(lambda _e, i=i: seen.append(i))
                event.succeed()

        trigger = kernel.event()
        trigger.add_callback(explode)
        trigger.succeed(None)
        kernel.run()
        assert seen == list(range(500))
        assert kernel.processed_events == 501

    def test_telemetry_flip_mid_drain_falls_back_to_step(self):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(enabled=False)
        kernel = Kernel(telemetry=telemetry)
        for i in range(300):
            kernel.timeout(float(i))
        flip_at = []

        def flip(_event):
            telemetry.enable()
            flip_at.append(kernel.now)
        kernel.timeout(100.5).add_callback(flip)
        kernel.run()
        assert kernel.processed_events == 301
        assert kernel.now == 299.0
        # The flag is read once per event, before the fire: events after
        # the flip (t=101..299) are counted; the 101+1 up to and
        # including the flip are not.
        counted = telemetry.metrics.value("kernel.events_dispatched",
                                          default=0)
        assert counted == 199

    def test_telemetry_switched_off_mid_drain_keeps_what_was_counted(self):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(enabled=True)
        kernel = Kernel(telemetry=telemetry)
        for i in range(300):
            kernel.timeout(float(i))
        kernel.timeout(100.5).add_callback(lambda _e: telemetry.disable())
        kernel.run()
        assert kernel.processed_events == 301
        # The 101 + 1 events up to and including the one that switched
        # telemetry off were seen with it on; the depth is the one
        # after that event's pop.  Both are written when the loop
        # returns, by which time the registry is disabled.
        assert not telemetry.metrics.enabled
        metrics = telemetry.metrics
        assert metrics.value("kernel.events_dispatched") == 102
        assert metrics.value("kernel.heap_depth") == 199

    def test_kernel_series_are_written_when_the_loop_returns(self):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(enabled=True)
        kernel = Kernel(telemetry=telemetry)
        seen = []
        for i in range(5):
            kernel.timeout(float(i)).add_callback(
                lambda _e: seen.append(telemetry.metrics.value(
                    "kernel.events_dispatched", default=0)))
        kernel.run(max_events=2)
        kernel.run()
        # A reader inside a callback sees the value as of the previous
        # return; after a return it is exact.
        assert seen == [0, 0, 2, 2, 2]
        assert telemetry.metrics.value("kernel.events_dispatched") == 5
        assert telemetry.metrics.value("kernel.heap_depth") == 0
        telemetry.metrics.reset()
        kernel.timeout(1.0)
        kernel.run()
        assert telemetry.metrics.value("kernel.events_dispatched") == 1

    def test_callback_error_leaves_heap_consistent(self):
        kernel = Kernel()
        fired = []
        for i in range(100):
            kernel.timeout(float(i), value=i).add_callback(
                lambda e: fired.append(e.value))
        kernel.timeout(49.5).add_callback(
            lambda _e: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            kernel.run()
        survivors = len(fired)
        assert survivors == 50  # 0..49 fired before the bomb
        kernel.run()  # the remaining events are all still schedulable
        assert fired == list(range(100))
        assert kernel.processed_events == 101


#: Python frames the kernel spends per dispatched event: ``_fire``
#: alone, telemetry on or off — the two kernel series are written once
#: per ``_dispatch`` call.
DISPATCH_FRAMES = {False: 1, True: 1}

#: Frames not per event: ``run`` and ``_dispatch``; with telemetry on,
#: ``_record_dispatched`` and its two series writes.
DISPATCH_CALL_FRAMES = {False: 2, True: 5}


@pytest.mark.parametrize("bounds", [{}, {"max_events": 10**9}],
                         ids=["unbounded", "bounded"])
@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["telemetry-off", "telemetry-on"])
def test_dispatch_stays_within_its_frame_budget(telemetry, bounds):
    """``count.py_calls`` of the repo benchmark, for the kernel's share
    of one event, where CI runs it: a call added back inside the
    dispatch loop fails here in seconds, on any host."""
    from repro.obs.telemetry import Telemetry

    events = 1000
    kernel = Kernel(telemetry=Telemetry(enabled=telemetry))
    kernel.timeout(0.0)
    kernel.run()                # first use of every lazy path
    for i in range(events):
        kernel.timeout(i * 0.001)
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        kernel.run(**bounds)
    finally:
        sys.setprofile(previous)
    assert kernel.processed_events == events + 1
    assert calls <= events * DISPATCH_FRAMES[telemetry] \
        + DISPATCH_CALL_FRAMES[telemetry]


def count_kernel_frames(action):
    """Python frames (``sys.setprofile`` call events) ``action`` spends
    in ``sim/eventloop.py``; frames of the caller's own code, of
    generators defined in a test and of ``gc`` hooks are not the
    kernel's."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.endswith(
                os.path.join("repro", "sim", "eventloop.py")):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return calls


class TestEventFrameBudget:
    """``layer.sim.eventloop.calls_per_op`` of the repo benchmark, one
    primitive at a time, where CI runs it.  The loop's own two frames
    (``run`` and ``_dispatch``, see ``DISPATCH_CALL_FRAMES``) are
    subtracted where a budget spans a run.  Before the hot methods wrote
    out what they need: 4, 8, 3, 11 and 28."""

    TIMEOUT_FRAMES = 2          # Kernel.timeout, Timeout.__init__
    SPAWN_FRAMES = 2            # Kernel.spawn, Process.__init__
    SUCCEED_FRAMES = 1          # Event.succeed
    #: timeout + __init__, then _fire and the _resume that re-arms.
    YIELDED_TIMEOUT_FRAMES = 4
    #: spawn (2), bootstrap _fire + _resume (2), the timeout's cycle (4),
    #: then succeed and the process's own _fire.
    WAIT_ONCE_FRAMES = 10

    def test_creating_a_timeout(self, kernel):
        assert count_kernel_frames(
            lambda: kernel.timeout(1.0)) <= self.TIMEOUT_FRAMES

    def test_spawning_a_process(self, kernel):
        def proc():
            yield kernel.timeout(1.0)
        generator = proc()
        assert count_kernel_frames(
            lambda: kernel.spawn(generator)) <= self.SPAWN_FRAMES

    def test_triggering_an_event(self, kernel):
        event = kernel.event()
        assert count_kernel_frames(event.succeed) <= self.SUCCEED_FRAMES

    def test_one_yielded_timeout_from_creation_to_the_next_wait(self, kernel):
        cycles = 50

        def proc():
            for _ in range(cycles + 1):
                yield kernel.timeout(1.0)
        kernel.spawn(proc())
        kernel.run(until=0.5)   # parked on its first timeout
        # Each of the next ``cycles`` instants fires one timeout, whose
        # resume creates and waits on the next.
        calls = count_kernel_frames(lambda: kernel.run(until=cycles + 0.5))
        assert kernel.processed_events == 1 + cycles
        assert calls - DISPATCH_CALL_FRAMES[False] \
            <= cycles * self.YIELDED_TIMEOUT_FRAMES

    def test_a_process_that_waits_once(self, kernel):
        def proc():
            yield kernel.timeout(1.0)

        def whole_life():
            kernel.spawn(proc())
            kernel.run()
        calls = count_kernel_frames(whole_life)
        assert kernel.processed_events == 3
        assert calls - DISPATCH_CALL_FRAMES[False] <= self.WAIT_ONCE_FRAMES


class TestResumeKeepsItsContract:
    """What ``Process._resume`` did through ``triggered`` / ``ok`` /
    ``_wait_for`` / ``add_callback`` and now does on fields."""

    def test_yielding_a_processed_event_resumes_at_once(self, kernel):
        done = kernel.timeout(1, value="early")
        drain(kernel)
        assert done.processed
        seen = []

        def proc():
            seen.append(((yield done), kernel.now))
            seen.append(((yield done), kernel.now))
            yield kernel.timeout(2)
            return "end"
        process = kernel.spawn(proc())
        kernel.run(max_events=1)    # the bootstrap alone
        # Both waits were satisfied inside that one resume.
        assert seen == [("early", 1), ("early", 1)]
        drain(kernel)
        assert process.value == "end" and kernel.now == 3

    def test_yielding_a_processed_failed_event_throws_it_in(self, kernel):
        bad = kernel.event()
        bad.fail(KeyError("nope"))
        drain(kernel)

        def proc():
            try:
                yield bad
            except KeyError as exc:
                return f"caught {exc}"
        assert kernel.run_process(proc()) == "caught 'nope'"

    def test_a_non_event_is_an_error_the_generator_can_catch(self, kernel):
        def proc():
            try:
                yield 42
            except SimulationError as exc:
                assert "non-event" in str(exc)
            value = yield kernel.timeout(1, value="carried on")
            return value
        assert kernel.run_process(proc()) == "carried on"

    def test_a_foreign_event_is_an_error_the_generator_can_catch(
            self, kernel):
        other = Kernel()

        def proc():
            try:
                yield other.event()
            except SimulationError as exc:
                return str(exc)
        assert "another kernel" in kernel.run_process(proc())

    def test_a_finished_process_ignores_a_late_wake_up(self, kernel):
        def proc():
            try:
                yield kernel.timeout(5, value="stale")
            except Interrupt:
                return "interrupted"
        process = kernel.spawn(proc())
        kernel.timeout(1).add_callback(lambda _e: process.interrupt())
        drain(kernel)               # the t=5 timeout fires onto nothing
        assert process.value == "interrupted" and kernel.now == 5

    def test_every_way_onto_the_heap_takes_the_next_sequence(self, kernel):
        def proc():
            yield kernel.timeout(0)
        before = kernel._sequence
        kernel.timeout(0)                       # 1
        kernel.event().succeed()                # 1
        kernel.event().fail(ValueError())       # 1
        kernel.spawn(proc())                    # 1: the bootstrap
        kernel._post(kernel.event())            # 1: the helper they wrote out
        assert kernel._sequence == before + 5
        assert [(when, seq) for when, seq, _event in sorted(kernel._heap)] \
            == [(0.0, before + i) for i in range(5)]
        drain(kernel)
        # ... and the timeout the process yielded, and its completion.
        assert kernel._sequence == before + 7


class TestCombinatorEdges:
    def test_any_of_with_already_processed_event(self, kernel):
        done = kernel.event()
        done.succeed("early")
        kernel.run()  # process it fully
        pending = kernel.event()

        def proc():
            result = yield kernel.any_of([done, pending])
            return result
        result = kernel.run_process(proc())
        assert result[done] == "early"

    def test_all_of_with_mixed_readiness(self, kernel):
        ready = kernel.event()
        ready.succeed(1)

        def proc():
            later = kernel.timeout(5, value=2)
            done = yield kernel.all_of([ready, later])
            return sorted(done.values())
        assert kernel.run_process(proc()) == [1, 2]
        assert kernel.now == 5

    def test_nested_any_of(self, kernel):
        def proc():
            inner = kernel.any_of([kernel.timeout(1, "a"),
                                   kernel.timeout(9, "b")])
            outer = yield kernel.any_of([inner, kernel.timeout(5, "c")])
            return list(outer)[0].value
        value = kernel.run_process(proc())
        assert list(value.values()) == ["a"]

    def test_process_chain_of_spawns(self, kernel):
        def leaf():
            yield kernel.timeout(1)
            return 1

        def middle():
            value = yield kernel.spawn(leaf())
            return value + 1

        def root():
            value = yield kernel.spawn(middle())
            return value + 1
        assert kernel.run_process(root()) == 3
