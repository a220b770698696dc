"""A world's life: build, run, read the document, close.

``Kernel.close`` ends every live process and ``TaxCluster.close`` lets
go of what only a running world needs, so a finished world is freed by
reference counting alone.  The collector guard holds that for every
scenario, paper experiment and CLI world; the memory budget holds an
experiment to one live world at a time; the rest pins what ``close``
does and the structural cuts that keep owners out of reference cycles.
"""

import gc
import importlib
import os
import traceback
import tracemalloc
from collections import Counter

import pytest

from repro.agent.context import AgentContext
from repro.agent.mailbox import Mailbox
from repro.bench.experiments import EXPERIMENTS, run_e1, run_experiment
from repro.bench.overload import run_overload
from repro.cli import main as cli_main
from repro.core.briefcase import Briefcase
from repro.core.errors import CommTimeoutError
from repro.obs.telemetry import Telemetry
from repro.sim.errors import Interrupt, SimulationError
from repro.sim.eventloop import Kernel, Process
from repro.suites import load_suite
from repro.suites.runner import run_cell
from repro.system.cluster import TaxCluster
from repro.vm import loader
from repro.wrappers.location import LocationWrapper

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SUITES = ("examples/ci.suite.yaml", "benchmarks/e2e/durable.suite.yaml")


def finished(ctx, bc):
    """An agent that is done as soon as it lands."""
    return "done"


def world_objects_left(action) -> Counter:
    """Run ``action()`` with the collector off, then collect: the
    ``repro.*`` objects the collector had to find, by type."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        action()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro."))
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
        if was_enabled:
            gc.enable()
    return left


def suite_cells():
    for path in SUITES:
        spec = load_suite(os.path.join(ROOT, path))
        for index, cell in enumerate(spec.cells):
            yield pytest.param(spec.seed, index, cell,
                               id=f"{spec.name}:{cell.cell_id}")


class TestCollectorGuard:
    """A back-reference between owners that is neither structural-free
    nor cut by ``close`` shows up here, by type (``scripts/cycles.py``
    prints the cycles themselves)."""

    @pytest.mark.parametrize("governed", [True, False],
                             ids=["governed", "ungoverned"])
    def test_run_overload_leaves_nothing(self, governed):
        assert world_objects_left(
            lambda: run_overload(7, governed=governed)) == Counter()

    @pytest.mark.parametrize("seed,index,cell", suite_cells())
    def test_suite_cell_leaves_nothing(self, seed, index, cell):
        assert world_objects_left(
            lambda: run_cell(cell, seed, index)) == Counter()

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_experiment_leaves_nothing(self, experiment_id):
        assert world_objects_left(
            lambda: run_experiment(experiment_id)) == Counter()

    @pytest.mark.parametrize("argv", [
        ["crawl", "--pages", "30", "--bytes", "100000"],
        ["trace"], ["report"], ["metrics"]], ids=" ".join)
    def test_cli_world_leaves_nothing(self, argv):
        assert world_objects_left(lambda: cli_main(argv)) == Counter()

    def test_the_group_demo_closes_its_world(self, monkeypatch, capsys):
        """The demo's sensors carry a ``LocationWrapper``, whose
        ``on_detach`` posts a ``remove`` when a sensor ends: the demo's
        close ends them, a post made while the world closes is closed
        before it runs (no send leaves a closing world), and a later
        collection finds nothing to run."""
        # The sensors launch by reference, so the demo must import.
        monkeypatch.syspath_prepend(os.path.join(ROOT, "examples"))
        demo = importlib.import_module("group_wrapper_demo")
        detached, sent_closing, closed = [], [], []
        close, send, on_detach = \
            TaxCluster.close, AgentContext.send, LocationWrapper.on_detach

        def closing(cluster):
            close(cluster)
            closed.append(cluster)

        def sending(ctx, target, briefcase=None, **kwargs):
            if ctx.kernel._closed:
                sent_closing.append(str(target))
            return (yield from send(ctx, target, briefcase, **kwargs))

        def detaching(wrapper, ctx):
            detached.append(bool(closed))
            on_detach(wrapper, ctx)

        monkeypatch.setattr(TaxCluster, "close", closing)
        monkeypatch.setattr(AgentContext, "send", sending)
        monkeypatch.setattr(LocationWrapper, "on_detach", detaching)
        assert world_objects_left(demo.main) == Counter()
        gc.collect()
        assert "fresh reading from its new home" in capsys.readouterr().out
        assert len(closed) == 1
        # All three sensors end inside the close, none after it.
        assert detached == [False, False, False]
        assert sent_closing == []


def test_an_experiment_holds_one_world_at_a_time():
    """E1 builds two paper-site worlds; the first is gone before the
    second is generated.  The traced peak is 5.5 MiB with one world
    alive and 9.1 MiB with two (CPython 3.11.7), so a driver that keeps
    a finished world fails here whatever the host's allocator does."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run_e1(seed=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2 ** 20


def kernel_free():
    return
    yield


class TestKernelClose:
    def test_cleanups_run_once_in_spawn_order(self, kernel):
        cleaned = []

        def sleeper(name, delay):
            try:
                yield kernel.timeout(delay)
                yield kernel.timeout(100)
            finally:
                cleaned.append(name)

        kernel.spawn(sleeper("a", 5))
        kernel.spawn(sleeper("b", 1))
        kernel.run(until=2)
        kernel.spawn(sleeper("c", 1))
        kernel.run(until=3)
        kernel.close()
        assert cleaned == ["a", "b", "c"]
        kernel.close()
        assert cleaned == ["a", "b", "c"]

    def test_a_process_spawned_while_closing_is_closed_too(self, kernel):
        spawned = []
        started = []

        def late():
            started.append(True)
            yield kernel.timeout(1)

        def parent():
            try:
                yield kernel.timeout(10)
            finally:
                spawned.append(kernel.spawn(late()))

        kernel.spawn(parent())
        kernel.run(until=1)
        events = kernel.processed_events
        kernel.close()
        [child] = spawned
        assert not child.is_alive
        assert child.generator.gi_frame is None
        assert started == [] and kernel.processed_events == events

    def test_an_exception_while_closing_is_the_process_failure(self, kernel):
        def raises():
            try:
                yield kernel.timeout(10)
            finally:
                raise ValueError("cleanup failed")

        def yields_in_cleanup():
            try:
                yield kernel.timeout(10)
            finally:
                yield kernel.timeout(1)

        failing = kernel.spawn(raises())
        stubborn = kernel.spawn(yields_in_cleanup())
        kernel.run(until=1)
        kernel.close()
        assert isinstance(failing.exception, ValueError)
        assert isinstance(stubborn.exception, RuntimeError)
        assert not failing.is_alive and not stubborn.is_alive

    def test_a_closed_kernel_does_not_run(self, kernel):
        kernel.timeout(5)
        kernel.run(until=1)
        kernel.close()
        with pytest.raises(SimulationError):
            kernel.run()
        with pytest.raises(SimulationError):
            kernel.run_until(kernel.event())
        with pytest.raises(SimulationError):
            kernel.run_process(kernel_free())
        assert kernel.now == 1 and kernel.processed_events == 0

    def test_telemetry_reads_the_final_instant_after_close(self):
        telemetry = Telemetry(enabled=True)
        kernel = Kernel(telemetry=telemetry)
        kernel.timeout(100)
        kernel.run(until=3)
        span = telemetry.tracer.begin("left-open")
        kernel.close()
        assert span.end().end_time == 3

    def test_every_process_of_a_closed_world_is_over(self, pair_cluster):
        cluster = pair_cluster
        alpha = cluster.node("alpha.test")
        ctx = alpha.driver(name="listener")
        client = alpha.driver(name="client")

        def listen():
            yield from ctx.recv(timeout=60)

        def use_a_service_and_a_vm():
            yield from client.call_service("ag_fs", "list")
            transport = Briefcase()
            loader.install_payload(transport, loader.pack_ref(finished),
                                   agent_name="finished")
            yield from client.meet(cluster.vm_uri("alpha.test"), transport)
            yield cluster.kernel.timeout(1)

        cluster.kernel.spawn(listen(), name="listener")
        cluster.run(use_a_service_and_a_vm())
        processes = [obj for obj in gc.get_objects()
                     if isinstance(obj, Process)
                     and getattr(obj, "kernel", None) is cluster.kernel]
        # The system agents asked run their loops; nothing else of the
        # two landing pads holds a process.
        assert sorted(p.name for p in processes if p.is_alive) == [
            "ag_fs@alpha.test", "listener", "vm_python@alpha.test"]
        cluster.close()
        assert [p for p in processes if p.is_alive] == []
        with pytest.raises(SimulationError):
            cluster.run(use_a_service_and_a_vm())


class TestStructuralCuts:
    def test_a_fired_any_of_holds_no_children(self, kernel):
        first = kernel.any_of([kernel.timeout(1, "a"), kernel.timeout(2)])
        failed = kernel.any_of([kernel.event().fail(ValueError("x")),
                                kernel.timeout(2)])
        kernel.run()
        assert first.value and not first.events
        assert not failed.ok and not failed.events

    def test_a_fired_all_of_holds_no_children(self, kernel):
        both = kernel.all_of([kernel.timeout(1), kernel.timeout(2)])
        failed = kernel.all_of([kernel.event().fail(ValueError("x")),
                                kernel.timeout(2)])
        kernel.run()
        assert len(both.value) == 2 and not both.events
        assert not failed.ok and not failed.events

    def test_a_finished_span_holds_no_tracer(self):
        tracer = Telemetry(enabled=True).tracer
        span = tracer.begin("open")
        assert span.tracer is tracer
        span.end()
        assert span.tracer is None and tracer.spans == [span]
        assert tracer.record("recorded", 0.0, 1.0).tracer is None

    def test_a_failed_process_keeps_where_but_no_locals(self, kernel):
        def doomed():
            payload = ["held by the frame"]
            yield kernel.timeout(1)
            raise ValueError(payload[0])

        process = kernel.spawn(doomed())
        kernel.run()
        kernel.close()
        tb = process.exception.__traceback__
        assert any(frame.name == "doomed" and frame.filename == __file__
                   for frame in traceback.extract_tb(tb))
        while tb is not None:
            assert tb.tb_frame.f_locals == {}
            tb = tb.tb_next


class TestInterruptedReceive:
    """A receive that leaves without its message withdraws its waiter:
    the next matching message goes to the next receive."""

    @pytest.mark.parametrize("first_timeout", [None, 100.0],
                             ids=["no-timeout", "timeout"])
    def test_the_next_receive_gets_the_message(self, kernel, first_timeout):
        mailbox = Mailbox(kernel)
        got = []

        def agent():
            try:
                yield from mailbox.receive(timeout=first_timeout)
            except Interrupt:
                pass
            try:
                got.append((yield from mailbox.receive(timeout=10)))
            except CommTimeoutError as exc:
                got.append(exc)

        process = kernel.spawn(agent())
        kernel.run(until=1)
        process.interrupt("poked")
        kernel.run(until=2)
        assert mailbox.deliver("hello")
        kernel.run()
        assert got == ["hello"]
        assert mailbox.delivered_count == 1 and len(mailbox) == 0
