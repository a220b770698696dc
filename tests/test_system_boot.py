"""System agents start their loop on first delivery (``repro.agent.system``).

- **Boot == the eager oracle.**  Generated operation sequences against a
  landing pad — requests to every service, launches to every VM,
  messages parked before the pad boots or while a service is killed,
  admin ``stop`` / ``resume`` / ``kill`` / ``stat`` of system agents,
  crashes and restarts mid-request, ``ag_cron`` jobs firing after a
  restart — run once with the product boot and once with
  ``tests/oracles/boot.py``.  Every outcome, the sanitizer's
  observations, the trace JSONL, the flight rings and dumps and the
  metrics snapshot are equal, except
  ``kernel.events_dispatched``, which differs by exactly what the eager
  loops cost: the bootstrap of every registration whose loop did not
  start at boot's place, and the interrupt and the end of every loop
  interrupted before it started.
- **Budget.**  A booted node fires no event and holds no process before
  something is sent to it; the first request to ``ag_fs`` and the first
  launch on ``vm_python`` cost what they cost under the oracle.
"""

import collections
import contextlib
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.agent.system import Residency
from repro.analysis.sanitizer import sanitizing
from repro.core.briefcase import Briefcase
from repro.core.errors import TaxError
from repro.core import wellknown
from repro.core.uri import AgentUri
from repro.firewall.firewall import LOCAL_DISPATCH_SECONDS
from repro.obs.telemetry import Telemetry
from repro.services.ag_fs import FS_OP_SECONDS
from repro.sim.errors import Interrupt
from repro.sim.network import BANDWIDTH_100MBIT, LATENCY_LAN, NetworkError
from repro.system.cluster import TaxCluster
from repro.vm import loader

from tests.golden.pins import telemetry_artifacts
from tests.oracles.boot import eager_system_agents

HOME, PAD = "home.test", "pad.test"
SERVICES = ("ag_exec", "ag_cc", "ag_fs", "ag_cabinet", "ag_cron",
            "ag_locator", "firewall")
VMS = ("vm_python", "vm_source", "vm_bin", "vm_pickle")
#: Seconds a request waits for its reply.
PATIENCE = 5.0

VISITOR_SOURCE = """
def visitor(ctx, bc):
    yield ctx.kernel.timeout(0.01)
    return "visited"
"""


def visitor(ctx, bc):
    yield ctx.kernel.timeout(0.01)
    return "visited"


def request_for(service):
    """A request every service answers (``ag_cc`` by meeting
    ``ag_exec`` from its own handler)."""
    if service in ("ag_exec", "ag_cc"):
        briefcase = Briefcase()
        loader.install_payload(
            briefcase, loader.pack_source("def f():\n    return 9\n", "f"))
        if service == "ag_exec":
            briefcase.put("TOOL", "cc")
            return "tool", briefcase
        return "compile", briefcase
    return "list", Briefcase()


def transport_for(vm):
    """A launch briefcase: a visitor ``vm_python`` and ``vm_source``
    run (``vm_source`` through ``ag_cc``, ``ag_exec`` and ``vm_bin``),
    a payload ``vm_bin`` and ``vm_pickle`` refuse."""
    briefcase = Briefcase()
    if vm == "vm_source":
        payload = loader.pack_source(VISITOR_SOURCE, "visitor")
    else:
        payload = loader.pack_ref(visitor)
    loader.install_payload(briefcase, payload, agent_name="visitor")
    return briefcase


class LandingPad:
    """Drives one operation sequence against ``pad.test`` from a signed
    driver on ``home.test`` and from drivers on the pad itself."""

    def __init__(self, ops, durable):
        self.ops = ops
        self.cluster = cluster = TaxCluster(
            telemetry=Telemetry(enabled=True))
        cluster.add_node(HOME)
        self.pad = cluster.add_node(PAD, boot=False)
        cluster.network.link(HOME, PAD, latency=LATENCY_LAN,
                             bandwidth=BANDWIDTH_100MBIT)
        if durable:
            cluster.enable_durability()
        self.home = cluster.node(HOME).driver(name="client")
        self.home.configure_signing(cluster.keychain)
        self.local = None
        #: A driver named "sink" on the pad per boot: cron jobs' target.
        self.sinks = []
        self.outcomes = []

    def run(self):
        kernel = self.cluster.kernel
        kernel.spawn(self._drive(), name="ops")
        kernel.run(until=1000)
        # What reached the sinks and the client unasked (cron jobs, and
        # replies that came after their meet gave up), with the address
        # of the registration that sent each.
        for ctx in (*self.sinks, self.home):
            while len(ctx.mailbox):
                message = ctx.mailbox._take_queued(None)
                self.outcomes.append((str(message.sender.uri),
                                      message.briefcase.get_text("NOTE")))
        return self.outcomes

    def _local(self):
        """A driver on the pad, registered again after each restart."""
        if self.local is None:
            self.local = self.pad.driver(name="resident")
        return self.local

    def _drive(self):
        kernel = self.cluster.kernel
        for index, op in enumerate(self.ops):
            kind = op[0]
            if kind == "wait":
                yield kernel.timeout(op[1])
            elif kind == "boot":
                self.pad.boot()
                self.sinks.append(self.pad.driver(name="sink"))
            elif kind == "crash":
                self.pad.crash()
                self.local = None
            elif kind == "restart":
                if not self.pad.alive:
                    self.pad.restart()
                    self.sinks.append(self.pad.driver(name="sink"))
            else:
                kernel.spawn(self._exchange(index, op), name=f"op{index}")

    def _exchange(self, index, op):
        kind, what = op[0], op[1]
        sender = HOME if kind == "admin" else op[2]
        if kind == "request":
            target, (name, request) = what, request_for(what)
        elif kind == "launch":
            target, name, request = what, None, transport_for(what)
        elif kind == "admin":
            found = [registration.instance for registration
                     in self.pad.firewall.admin_list()
                     if registration.name == what]
            target, name, request = "firewall", op[2], Briefcase()
            request.put(wellknown.ARGS,
                        {"instance": found[0] if found else "none"})
        else:
            # A job whose delivery comes from ag_cron's own context:
            # after a restart, that of the new registration.
            target, name = "ag_cron", "schedule"
            request = Briefcase({"NOTE": [f"deferred {index}"]})
            request.put(wellknown.ARGS, {
                "delay": what, "target": f"tacoma://{PAD}/{op[3]}"})
        if name is not None:
            request.put(wellknown.OP, name)
        if sender == HOME:
            ctx = self.home
        elif self.pad.alive:
            ctx = self._local()
        else:
            self.outcomes.append((index, "pad down"))
            return
        try:
            reply = yield from ctx.meet(
                AgentUri.parse(f"tacoma://{PAD}/{target}"), request,
                timeout=PATIENCE)
            outcome = (reply.get_text(wellknown.STATUS),
                       reply.get_text(wellknown.ERROR),
                       reply.get_json(wellknown.RESULTS))
        except (TaxError, NetworkError, Interrupt) as exc:
            outcome = (type(exc).__name__, str(exc))
        self.outcomes.append((index, self.cluster.kernel.now, outcome))


@contextlib.contextmanager
def tallied_residencies():
    """Count what the eager loops would have cost beyond the product's:
    registrations, loops started at boot's place, and interrupts of
    loops that never started."""
    tally = collections.Counter()
    init, start, interrupt = (Residency.__init__, Residency._start,
                              Residency.interrupt)

    def counted_init(self, agent):
        tally["registrations"] += 1
        init(self, agent)

    def counted_start(self, message):
        if message is None:
            tally["started_at_boot_place"] += 1
        start(self, message)

    def counted_interrupt(self, cause=None):
        if self.process is None:
            tally["interrupted_unstarted"] += 1
        interrupt(self, cause)

    Residency.__init__ = counted_init
    Residency._start = counted_start
    Residency.interrupt = counted_interrupt
    try:
        yield tally
    finally:
        Residency.__init__ = init
        Residency._start = start
        Residency.interrupt = interrupt


def drive(ops, durable):
    """Outcomes and sanitizer observations, telemetry artifacts, metrics
    snapshot (less the events dispatched) and events dispatched of one
    run."""
    with sanitizing("boot") as sanitizer:
        pad = LandingPad(ops, durable)
        outcomes = pad.run()
    artifacts = dict(telemetry_artifacts(pad.cluster.telemetry))
    pad.cluster.close()
    snapshot = json.loads(artifacts.pop("metrics.snapshot"))
    samples = snapshot.pop("kernel.events_dispatched")["samples"]
    observed = (sanitizer.observations,
                [str(finding) for finding in sanitizer.sorted_findings()])
    return (outcomes, observed), artifacts, snapshot, samples[0]["value"]


senders = st.sampled_from((HOME, PAD))
asks = st.one_of(
    st.tuples(st.just("request"), st.sampled_from(SERVICES), senders),
    st.tuples(st.just("launch"), st.sampled_from(VMS), senders),
    st.tuples(st.just("wait"), st.sampled_from(
        (0.0, LOCAL_DISPATCH_SECONDS, 0.05, 1.0))))
operations = st.one_of(
    asks,
    st.tuples(st.just("admin"), st.sampled_from(SERVICES + VMS),
              st.sampled_from(("stop", "resume", "kill", "stat"))),
    st.tuples(st.just("cron"), st.sampled_from((0.0, 0.5, 3.0)), senders,
              st.sampled_from(("ag_fs", "sink"))),
    st.tuples(st.just("crash")), st.tuples(st.just("restart")))
before_boot = st.lists(asks, max_size=3)
sequences = st.builds(lambda head, tail: head + [("boot",)] + tail,
                      before_boot, st.lists(operations, max_size=10))

#: A request in flight when the pad crashes, a service killed and asked
#: again (its request parks, dies with the crash and is retransmitted by
#: the restart), and cron jobs firing before and after the restart.
CRASH_MID_REQUEST = [
    ("boot",), ("cron", 0.5, HOME, "sink"), ("cron", 3.0, HOME, "ag_fs"),
    ("cron", 3.0, HOME, "sink"), ("wait", 1.0),
    ("admin", "ag_fs", "kill"), ("wait", 0.05),
    ("request", "ag_fs", PAD), ("request", "ag_cc", HOME),
    ("launch", "vm_source", HOME), ("wait", 0.002), ("crash",),
    ("wait", 1.0), ("restart",), ("request", "ag_cabinet", HOME),
    ("wait", 1.0), ("admin", "ag_locator", "stat"),
    ("admin", "ag_exec", "stop"), ("request", "ag_exec", HOME),
    ("wait", 0.05), ("admin", "ag_exec", "resume")]
#: A pad-local request whose delivery comes at the instant of the boot,
#: from an event scheduled before it.
DELIVERED_AT_BOOT = [("request", "ag_fs", PAD),
                     ("wait", LOCAL_DISPATCH_SECONDS), ("boot",),
                     ("request", "ag_fs", PAD)]
#: A vm_source launch whose handler outlives a crash and an immediate
#: restart: its meet with ag_cc goes out on the new registration's
#: context, and ag_cc's reply is that registration's first delivery.
LAUNCH_ACROSS_RESTART = [("boot",), ("launch", "vm_source", HOME),
                         ("wait", 0.001), ("crash",), ("restart",)]


class TestBootIsTheEagerBoot:
    @given(ops=sequences, durable=st.booleans())
    @settings(max_examples=100, deadline=None)
    @example(ops=CRASH_MID_REQUEST, durable=False)
    @example(ops=CRASH_MID_REQUEST, durable=True)
    @example(ops=DELIVERED_AT_BOOT, durable=False)
    @example(ops=LAUNCH_ACROSS_RESTART, durable=False)
    def test_same_outcomes_traces_flight_and_metrics(self, ops, durable):
        with tallied_residencies() as tally:
            outcomes, artifacts, snapshot, events = drive(ops, durable)
        with eager_system_agents():
            oracle = drive(ops, durable)
        assert (outcomes, artifacts, snapshot) == oracle[:3]
        assert oracle[3] - events == (
            tally["registrations"] - tally["started_at_boot_place"]
            + 2 * tally["interrupted_unstarted"])

    @staticmethod
    def served_in_order():
        """A request to ag_fs delivered at the instant of the boot, by an
        event scheduled before it, and what a process spawned right after
        the delivery sees of ag_fs one operation later."""
        cluster = TaxCluster()
        pad = cluster.add_node("solo.test", boot=False)
        kernel = cluster.kernel
        driver = pad.driver()
        fs = pad.services
        seen = []

        def boot():
            yield kernel.timeout(LOCAL_DISPATCH_SECONDS)
            pad.boot()

        def look():
            yield kernel.timeout(FS_OP_SECONDS)
            seen.append(fs["ag_fs"].requests_handled)

        def ask():
            request = Briefcase()
            request.put(wellknown.OP, "list")
            yield from driver.send(AgentUri.for_agent("ag_fs"), request)
            kernel.spawn(look())

        kernel.spawn(boot())
        kernel.spawn(ask())
        kernel.run()
        seen.append(fs["ag_fs"].requests_handled)
        cluster.close()
        return seen

    def test_a_delivery_before_the_loops_first_step_waits_for_it(self):
        # The loop serves the request from the place boot held for it,
        # after the process the delivery's own step spawned.
        with eager_system_agents():
            eager = self.served_in_order()
        assert self.served_in_order() == eager == [0, 1]


class TestLandingPadBudget:
    def test_a_booted_node_costs_nothing_until_asked(self):
        for boot, events in ((contextlib.nullcontext, 0),
                             (eager_system_agents, 11)):
            with boot():
                cluster = TaxCluster()
                cluster.add_node("solo.test")
            kernel = cluster.kernel
            kernel.run()
            assert (kernel.processed_events, len(kernel._live)) == \
                (events, events)
            cluster.close()

    @staticmethod
    def first_exchange_costs():
        """Events fired by the first request to ag_fs, then by the first
        launch on vm_python, on a node that has settled after boot."""
        cluster = TaxCluster()
        node = cluster.add_node("solo.test")
        kernel = cluster.kernel
        kernel.run()
        driver = node.driver()
        transport = Briefcase()
        loader.install_payload(transport, loader.pack_ref(visitor),
                               agent_name="visitor")
        costs = []
        for exchange in (driver.call_service("ag_fs", "list"),
                         driver.meet(cluster.vm_uri("solo.test"),
                                     transport)):
            before = kernel.processed_events
            reply = cluster.run(exchange)
            kernel.run()
            assert reply.get_text(wellknown.STATUS) == "ok"
            costs.append(kernel.processed_events - before)
        cluster.close()
        return costs

    def test_first_request_and_launch_cost_what_they_cost_eagerly(self):
        with eager_system_agents():
            eager = self.first_exchange_costs()
        assert self.first_exchange_costs() == eager
