"""Tests for the wrapper framework and the concrete wrappers."""

import json

import pytest

from repro.core.briefcase import Briefcase
from repro.core.errors import TaxError
from repro.core import wellknown
from repro.core.uri import AgentUri
from repro.agent import api
from repro.agent.objagent import ObjectAgent, launch_briefcase
from repro.firewall.message import Message, SenderInfo
from repro.vm import loader
from repro.wrappers import mobility
from repro.wrappers.base import AgentWrapper
from repro.wrappers.groupcomm import GroupCommWrapper, group_send
from repro.wrappers.location import LocationWrapper, resolve, send_via
from repro.wrappers.logwrap import LOG_FOLDER, LoggingWrapper
from repro.wrappers.monitor import MonitorLog, MonitorWrapper
from repro.wrappers.stack import (
    WrapperSpec,
    WrapperStack,
    build_stack,
    install_wrappers,
    read_wrapper_specs,
)


class TagWrapper(AgentWrapper):
    """Appends its tag to briefcases in both directions (test helper)."""

    kind = "tag"

    def on_send(self, ctx, target, briefcase):
        briefcase.append("SENT-VIA", self.config.get("tag", "?"))
        return target, briefcase

    def on_receive(self, ctx, message):
        message.briefcase.append("RECEIVED-VIA", self.config.get("tag", "?"))
        return message


class DropWrapper(AgentWrapper):
    kind = "drop"

    def on_send(self, ctx, target, briefcase):
        return None

    def on_receive(self, ctx, message):
        return None


def make_message(text="x"):
    return Message(target=AgentUri.parse("someone"),
                   briefcase=Briefcase({"BODY": [text]}),
                   sender=SenderInfo("tester", "host"))


class TestWrapperStack:
    def test_send_applies_innermost_first(self):
        stack = WrapperStack([TagWrapper({"tag": "outer"}),
                              TagWrapper({"tag": "inner"})])
        target, briefcase = stack.apply_send(None, AgentUri.parse("t"),
                                             Briefcase())
        assert briefcase.get("SENT-VIA").texts() == ["inner", "outer"]

    def test_receive_applies_outermost_first(self):
        stack = WrapperStack([TagWrapper({"tag": "outer"}),
                              TagWrapper({"tag": "inner"})])
        message = stack.apply_receive(None, make_message())
        assert message.briefcase.get("RECEIVED-VIA").texts() == \
            ["outer", "inner"]

    def test_swallowed_send(self):
        stack = WrapperStack([DropWrapper()])
        assert stack.apply_send(None, AgentUri.parse("t"), Briefcase()) \
            is None

    def test_consumed_receive(self):
        stack = WrapperStack([DropWrapper()])
        assert stack.apply_receive(None, make_message()) is None

    def test_lifecycle_fan_out(self):
        events = []

        class Probe(AgentWrapper):
            def __init__(self, config=None):
                super().__init__(config)

            def on_attach(self, ctx):
                events.append("attach")

            def on_arrive(self, ctx):
                events.append("arrive")

            def on_depart(self, ctx, target):
                events.append("depart")

            def on_detach(self, ctx):
                events.append("detach")

        stack = WrapperStack([Probe(), Probe()])
        stack.on_attach(None)
        stack.on_arrive(None)
        stack.on_depart(None, AgentUri.parse("t"))
        stack.on_detach(None)
        assert events == ["attach"] * 2 + ["arrive"] * 2 + \
            ["depart"] * 2 + ["detach"] * 2

    def test_spec_serialisation_round_trip(self):
        spec = WrapperSpec.by_ref(LoggingWrapper, {"trace": True})
        clone = WrapperSpec.from_json(spec.to_json())
        assert clone == spec

    def test_install_and_rebuild_from_briefcase(self):
        briefcase = Briefcase()
        install_wrappers(briefcase, [
            WrapperSpec.by_ref(LoggingWrapper, {"trace": False}),
            WrapperSpec.by_ref(MonitorWrapper, {}),
        ])
        specs = read_wrapper_specs(briefcase)
        stack = build_stack(specs)
        assert stack.depth == 2
        assert isinstance(stack.layers[0], LoggingWrapper)
        assert isinstance(stack.layers[1], MonitorWrapper)

    def test_empty_briefcase_has_no_wrappers(self):
        assert read_wrapper_specs(Briefcase()) == []

    def test_non_wrapper_factory_rejected(self):
        from repro.core.errors import VMError
        spec = WrapperSpec.by_ref(
            "tests.test_wrappers:make_message", {})
        with pytest.raises((VMError, TypeError)):
            build_stack([spec])

    def test_describe(self):
        stack = WrapperStack([TagWrapper({"tag": "a"})])
        assert stack.describe() == [{"kind": "tag", "config": {"tag": "a"}}]


def pinger_agent(ctx, bc):
    """Sends N pings to a group and then idles until stopped."""
    n = int(bc.get_text("N") or 3)
    for i in range(n):
        yield from group_send(ctx, "swarm", Briefcase({"PING": [str(i)]}))
    while True:
        message = yield from ctx.recv()
        if message.briefcase.get_text(wellknown.OP) == "stop":
            return "done"


def group_listener_agent(ctx, bc):
    """Collects PINGs it hears until stopped; reports them home."""
    heard = []
    while True:
        message = yield from ctx.recv(timeout=500)
        if message.briefcase.get_text(wellknown.OP) == "stop":
            yield from ctx.send(bc.get_text("HOME"),
                                Briefcase({"HEARD": heard}))
            return "done"
        ping = message.briefcase.get_text("PING")
        if ping is not None:
            heard.append(ping)


class TestGroupComm:
    def launch(self, cluster, entry, name, wrappers, home, host="solo.test",
               folders=None):
        briefcase = Briefcase(folders or {})
        loader.install_payload(briefcase, loader.pack_ref(entry),
                               agent_name=name)
        briefcase.put("HOME", home)
        install_wrappers(briefcase, wrappers)
        driver_uri = None

        node = cluster.node(host)
        driver = node.driver(name=f"launcher-{name}")

        def scenario():
            reply = yield from driver.meet(cluster.vm_uri(host), briefcase,
                                           timeout=60)
            assert reply.get_text(wellknown.STATUS) == "ok", \
                reply.get_text(wellknown.ERROR)
            return reply.get_text("AGENT-URI")
        return cluster.run(scenario())

    def test_fifo_multicast_delivers_in_order(self, single_cluster):
        home = single_cluster.node("solo.test").driver(name="home")
        members = ["tacoma://solo.test//listener_a",
                   "tacoma://solo.test//listener_b"]
        config = {"group": "swarm", "members": members,
                  "ordering": "fifo"}
        spec = [WrapperSpec.by_ref(GroupCommWrapper, config)]
        a = self.launch(single_cluster, group_listener_agent, "listener_a",
                        spec, str(home.uri))
        b = self.launch(single_cluster, group_listener_agent, "listener_b",
                        spec, str(home.uri))
        sender_spec = [WrapperSpec.by_ref(GroupCommWrapper, config)]
        self.launch(single_cluster, pinger_agent, "pinger", sender_spec,
                    str(home.uri), folders={"N": ["4"]})

        def scenario():
            yield single_cluster.kernel.timeout(5)
            stop = Briefcase()
            stop.put(wellknown.OP, "stop")
            for uri in (a, b):
                yield from home.send(AgentUri.parse(uri), stop)
            heard = []
            for _ in range(2):
                message = yield from home.recv(timeout=60)
                heard.append(message.briefcase.folder("HEARD").texts())
            return heard
        results = single_cluster.run(scenario())
        assert results == [["0", "1", "2", "3"], ["0", "1", "2", "3"]]

    def test_group_wrapper_requires_members(self):
        with pytest.raises(ValueError):
            GroupCommWrapper({"group": "g", "members": []})

    def test_unknown_ordering_rejected(self):
        with pytest.raises(ValueError):
            GroupCommWrapper({"group": "g", "members": ["x"],
                              "ordering": "psychic"})

    def test_non_group_traffic_passes_through(self):
        wrapper = GroupCommWrapper({"group": "g", "members": ["m"]})
        message = make_message()
        assert wrapper.on_receive(None, message) is message

    def test_fifo_holdback_reorders(self, single_cluster):
        """Deliver seq 2 before seq 1: the wrapper must hold it back."""
        node = single_cluster.node("solo.test")
        driver = node.driver(name="member")
        config = {"group": "g", "members": [str(driver.uri)]}
        wrapper = GroupCommWrapper(config)
        driver.wrappers = WrapperStack([wrapper])

        def gc_message(seq, body):
            briefcase = Briefcase({"BODY": [body]})
            briefcase.put("GC-GROUP", "g")
            briefcase.put("GC-SENDER", "tacoma://x//peer:1")
            briefcase.put("GC-KIND", "data")
            briefcase.put("GC-SEQ", seq)
            return Message(target=driver.uri, briefcase=briefcase,
                           sender=SenderInfo("peer", "x"))

        out_of_order = wrapper.on_receive(driver, gc_message(2, "second"))
        assert out_of_order is None  # held back
        in_order = wrapper.on_receive(driver, gc_message(1, "first"))
        assert in_order.briefcase.get_text("BODY") == "first"
        assert wrapper.reordered == 1

        def scenario():
            # The held-back message is re-injected via the firewall.
            message = yield from driver.recv(timeout=30)
            return message.briefcase.get_text("BODY")
        assert single_cluster.run(scenario()) == "second"

    def test_duplicate_suppressed(self, single_cluster):
        node = single_cluster.node("solo.test")
        driver = node.driver(name="member2")
        wrapper = GroupCommWrapper(
            {"group": "g", "members": [str(driver.uri)]})
        briefcase = Briefcase()
        briefcase.put("GC-GROUP", "g")
        briefcase.put("GC-SENDER", "tacoma://x//peer:1")
        briefcase.put("GC-KIND", "data")
        briefcase.put("GC-SEQ", 1)
        message = Message(target=driver.uri, briefcase=briefcase,
                          sender=SenderInfo("peer", "x"))
        assert wrapper.on_receive(driver, message) is not None
        duplicate = Message(target=driver.uri,
                            briefcase=briefcase.snapshot(),
                            sender=SenderInfo("peer", "x"))
        assert wrapper.on_receive(driver, duplicate) is None


class TestMonitorWrapper:
    def test_status_query_answered_without_agent(self, single_cluster):
        node = single_cluster.node("solo.test")
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(pinger_agent),
                               agent_name="watched")
        briefcase.put("N", "0")
        monitor_log = MonitorLog()
        node.firewall.register_agent(
            name="monitor-tool", principal="system", vm_name="vm_python",
            deliver_fn=monitor_log.deliver)
        install_wrappers(briefcase, [WrapperSpec.by_ref(
            MonitorWrapper,
            {"monitor": "tacoma://solo.test//monitor-tool",
             "tag": "watched"})])
        driver = node.driver()

        def scenario():
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test"), briefcase, timeout=60)
            agent_uri = reply.get_text("AGENT-URI")
            query = Briefcase()
            query.put(wellknown.OP, "status-query")
            status = yield from driver.meet(AgentUri.parse(agent_uri),
                                            query, timeout=60)
            results = status.get_json(wellknown.RESULTS)
            stop = Briefcase()
            stop.put(wellknown.OP, "stop")
            yield from driver.send(AgentUri.parse(agent_uri), stop)
            return results
        results = single_cluster.run(scenario())
        assert results["host"] == "solo.test"
        assert results["agent"].startswith("watched:")
        assert {(e["tag"], e["host"]) for e in monitor_log.events} == \
            {("watched", "solo.test")}
        events = [e["event"] for e in monitor_log.events]
        assert "arrived" in events

    def test_non_query_traffic_forwarded(self):
        wrapper = MonitorWrapper({})
        message = make_message()
        assert wrapper.on_receive(None, message) is message

    def test_status_query_carries_live_telemetry(self, single_cluster):
        single_cluster.telemetry.enable()
        node = single_cluster.node("solo.test")
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(pinger_agent),
                               agent_name="watched")
        briefcase.put("N", "0")
        install_wrappers(briefcase,
                         [WrapperSpec.by_ref(MonitorWrapper,
                                             {"tag": "watched"})])
        driver = node.driver()

        def scenario():
            reply = yield from driver.meet(
                single_cluster.vm_uri("solo.test"), briefcase, timeout=60)
            agent_uri = reply.get_text("AGENT-URI")
            # One plain delivery first, so the counters have something.
            yield from driver.send(AgentUri.parse(agent_uri),
                                   Briefcase({"NOISE": ["x"]}))
            query = Briefcase()
            query.put(wellknown.OP, "status-query")
            status = yield from driver.meet(AgentUri.parse(agent_uri),
                                            query, timeout=60)
            results = status.get_json(wellknown.RESULTS)
            stop = Briefcase()
            stop.put(wellknown.OP, "stop")
            yield from driver.send(AgentUri.parse(agent_uri), stop)
            return results
        results = single_cluster.run(scenario())
        telemetry = results["telemetry"]
        assert telemetry["enabled"] is True
        assert telemetry["messages_in"] >= 1
        assert telemetry["hops"] == 0
        assert "running_since" in telemetry
        metrics = single_cluster.telemetry.metrics
        assert metrics.value("monitor.reports", tag="watched",
                             event="arrived") == 1


class TestMonitorLog:
    def _event_message(self, event, host, t, tag="bot"):
        from repro.wrappers.monitor import EVENT_FOLDER
        briefcase = Briefcase()
        briefcase.put(EVENT_FOLDER, {"event": event, "host": host,
                                     "t": t, "tag": tag,
                                     "agent": f"{tag}:1"})
        return Message(target=AgentUri.parse("monitor-tool"),
                       briefcase=briefcase,
                       sender=SenderInfo("system", host))

    def test_residency_spans_reconstructed_from_reports(self):
        log = MonitorLog()
        for event, host, t in (("arrived", "a.test", 1.0),
                               ("departing", "a.test", 3.0),
                               ("arrived", "b.test", 4.0),
                               ("finished", "b.test", 6.0)):
            log.deliver(self._event_message(event, host, t))
        spans = log.tracer.find(track="monitor:bot")
        assert [(s.name, s.start, s.end_time) for s in spans] == \
            [("at:a.test", 1.0, 3.0), ("at:b.test", 4.0, 6.0)]
        assert [s.args["outcome"] for s in spans] == \
            ["departing", "finished"]
        # The classic location API is untouched.
        assert log.events[-1]["host"] == "b.test"
        assert len(log.locations()) == 4

    def test_instants_recorded_for_every_report(self):
        log = MonitorLog()
        log.deliver(self._event_message("arrived", "a.test", 1.0))
        assert len(log.tracer.instants) == 1
        assert log.tracer.instants[0]["name"] == "monitor.arrived"
        assert log.tracer.instants[0]["t"] == 1.0

    def test_reordered_reports_skip_the_backwards_residency(self):
        # A departure overtaken in flight by the next arrival: the pair
        # would end before it starts, so no residency is recorded for
        # it, and delivery (inside the sender's post) never raises.
        log = MonitorLog()
        for event, host, t in (("arrived", "a.test", 1.0),
                               ("departing", "a.test", 3.0),
                               ("arrived", "b.test", 4.0),
                               ("departing", "a.test", 3.5),
                               ("arrived", "c.test", 5.0),
                               ("finished", "c.test", 6.0)):
            assert log.deliver(self._event_message(event, host, t))
        assert [(s.name, s.start, s.end_time)
                for s in log.tracer.find(track="monitor:bot")] == \
            [("at:a.test", 1.0, 3.0), ("at:c.test", 5.0, 6.0)]
        assert len(log.locations()) == 6

    @pytest.mark.parametrize("body", [b"\xff{", b"{not json", b"[1, 2]"])
    def test_unreadable_reports_are_dropped(self, body):
        from repro.wrappers.monitor import EVENT_FOLDER
        log = MonitorLog()
        briefcase = Briefcase()
        briefcase.folder(EVENT_FOLDER).push(body)
        assert log.deliver(Message(target=AgentUri.parse("monitor-tool"),
                                   briefcase=briefcase,
                                   sender=SenderInfo("system", "a.test")))
        assert log.events == []

    def test_shared_tracer_is_used(self):
        from repro.obs.tracing import Tracer
        tracer = Tracer(enabled=True)
        log = MonitorLog(tracer=tracer)
        log.deliver(self._event_message("arrived", "a.test", 1.0))
        log.deliver(self._event_message("departing", "a.test", 2.0))
        assert tracer.find(track="monitor:bot")


class TestLoggingWrapper:
    def test_counters_and_trace(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        wrapper = LoggingWrapper({"trace": True})
        driver.wrappers = WrapperStack([wrapper])

        def scenario():
            yield from driver.send(AgentUri.parse("ag_fs"), Briefcase())
        single_cluster.run(scenario())
        assert wrapper.sent == 1 and wrapper.sent_bytes > 0
        trace = driver.briefcase.folder("WRAPLOG")
        assert len(trace) == 1
        assert wrapper.counters()["sent"] == 1

    def test_trace_capped(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        wrapper = LoggingWrapper({"trace": True, "max_trace": 2})
        driver.wrappers = WrapperStack([wrapper])

        def scenario():
            for _ in range(5):
                yield from driver.send(AgentUri.parse("ag_fs"), Briefcase())
        single_cluster.run(scenario())
        assert len(driver.briefcase.folder("WRAPLOG")) == 2
        assert wrapper.sent == 5


    def test_depart_counts_the_hop_and_traces_its_target(
            self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        wrapper = LoggingWrapper({"trace": True})
        target = AgentUri.parse("tacoma://elsewhere.test/vm_python")
        wrapper.on_depart(driver, target)
        assert wrapper.hops == 1 and wrapper.counters()["hops"] == 1
        record, = [json.loads(line) for line
                   in driver.briefcase.folder("WRAPLOG").texts()]
        assert record == {"dir": "hop", "to": str(target),
                          "t": single_cluster.kernel.now}

    def test_depart_without_trace_only_counts(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        wrapper = LoggingWrapper()
        wrapper.on_depart(driver, AgentUri.parse("tacoma://x.test/vm"))
        assert wrapper.hops == 1
        assert not driver.briefcase.has("WRAPLOG")


def hop_logging_agent(ctx, bc):
    """Goes once to the VM named in NEXT, then sends its WRAPLOG home."""
    stop = bc.get_text("NEXT")
    if stop is not None:
        bc.drop("NEXT")
        yield from api.go(ctx, stop)
    yield from ctx.send(bc.get_text("HOME"),
                        Briefcase({"LOG": bc.folder(LOG_FOLDER).texts()}))
    return "done"


class TestLoggingWrapperTravels:
    def test_the_hop_record_arrives_with_the_agent(self, pair_cluster):
        """``on_depart`` writes before the transport snapshot is taken,
        so the ``hop`` line is in the WRAPLOG the agent lands with."""
        home = pair_cluster.node("alpha.test").driver(name="home")
        destination = str(pair_cluster.vm_uri("beta.test"))
        briefcase = Briefcase()
        loader.install_payload(briefcase,
                               loader.pack_ref(hop_logging_agent),
                               agent_name="hopper")
        briefcase.put("HOME", str(home.uri))
        briefcase.put("NEXT", destination)
        install_wrappers(briefcase, [
            WrapperSpec.by_ref(LoggingWrapper, {"trace": True})])

        def scenario():
            reply = yield from home.meet(
                pair_cluster.vm_uri("alpha.test"), briefcase, timeout=60)
            assert reply.get_text(wellknown.STATUS) == "ok", \
                reply.get_text(wellknown.ERROR)
            message = yield from home.recv(timeout=60)
            return message.briefcase.folder("LOG").texts()
        records = [json.loads(line) for line in pair_cluster.run(scenario())]
        hops = [record for record in records if record["dir"] == "hop"]
        assert len(hops) == 1
        assert AgentUri.parse(hops[0]["to"]).host == "beta.test"


class TestLocation:
    def test_wrapper_requires_config(self):
        with pytest.raises(ValueError):
            LocationWrapper({})

    def test_publish_resolve_send_via(self, pair_cluster):
        registry_uri = "tacoma://beta.test//ag_locator"
        node = pair_cluster.node("alpha.test")
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(pinger_agent),
                               agent_name="roamer")
        briefcase.put("N", "0")
        install_wrappers(briefcase, [WrapperSpec.by_ref(
            LocationWrapper,
            {"registry": registry_uri, "logical": "the-roamer"})])
        driver = node.driver()

        def scenario():
            yield from driver.meet(pair_cluster.vm_uri("alpha.test"),
                                   briefcase, timeout=60)
            yield pair_cluster.kernel.timeout(1)
            where = yield from resolve(driver, registry_uri, "the-roamer")
            stop = Briefcase()
            stop.put(wellknown.OP, "stop")
            yield from send_via(driver, registry_uri, "the-roamer", stop)
            return str(where)
        where = pair_cluster.run(scenario())
        assert "alpha.test" in where and "roamer" in where

    def test_resolve_unknown_raises(self, single_cluster):
        driver = single_cluster.node("solo.test").driver()
        from repro.core.errors import AgentNotFoundError

        def scenario():
            with pytest.raises(AgentNotFoundError):
                yield from resolve(driver, "tacoma://solo.test//ag_locator",
                                   "nobody")
            return "done"
        assert single_cluster.run(scenario()) == "done"


class TestMobilityUnits:
    def test_program_round_trip(self):
        briefcase = Briefcase()
        payload = loader.pack_source("def f(a, e):\n    return 1\n", "f")
        mobility.install_program(briefcase, payload)
        assert mobility.read_program(briefcase) == payload

    def test_missing_program_raises(self):
        with pytest.raises(TaxError, match="PROGRAM"):
            mobility.read_program(Briefcase())

    def test_make_task_briefcase_shape(self):
        payload = loader.pack_source("def f(a, e):\n    return 1\n", "f")
        briefcase = mobility.make_task_briefcase(
            payload, [{"vm": "tacoma://h/vm_python", "args": {"k": 1}}],
            home_uri="tacoma://c//home:1")
        assert briefcase.get_text(wellknown.AGENT_NAME) == "mw_agent"
        assert len(briefcase.folder(mobility.ITINERARY)) == 1
        assert briefcase.get_text(mobility.HOME) == "tacoma://c//home:1"
        stop = briefcase.folder(mobility.ITINERARY).first().as_json()
        assert stop == {"args": {"k": 1}, "vm": "tacoma://h/vm_python"}

    def test_postprocess_identity_without_postprocessor(self):
        result = mobility._postprocess(Briefcase(), {"x": 1}, {})
        assert result == {"x": 1}


class RoamingCounter(ObjectAgent):
    """Pickled agent that hops once and reports its attribute state."""

    def __init__(self):
        self.hops = 0

    def run(self, ctx, bc):
        self.hops += 1
        nxt = bc.folder("HOSTS").pop_first()
        if nxt is None:
            yield from ctx.send(bc.get_text("HOME"),
                                Briefcase({"HOPS": [str(self.hops)]}))
            return "done"
        yield from self.go_with_state(ctx, nxt.as_text())


class TestObjectAgentWithWrappers:
    def test_monitor_wrapper_travels_with_pickled_agent(self,
                                                        pair_cluster):
        """Wrapper stacks must survive vm_pickle migration exactly as
        they do for code agents: the monitor reports from both hosts."""
        for node in pair_cluster.nodes.values():
            vm = node.vms["vm_pickle"]
            vm.allowed_prefixes = vm.allowed_prefixes + ("tests.",)
        node_a = pair_cluster.node("alpha.test")
        monitor_log = MonitorLog()
        node_a.firewall.register_agent(
            name="obj-monitor", principal="system", vm_name="vm_python",
            deliver_fn=monitor_log.deliver)

        driver = node_a.driver()
        briefcase = launch_briefcase(RoamingCounter(), agent_name="roamer")
        briefcase.folder("HOSTS").push("tacoma://beta.test/vm_pickle")
        briefcase.put("HOME", str(driver.uri))
        install_wrappers(briefcase, [WrapperSpec.by_ref(
            MonitorWrapper,
            {"monitor": "tacoma://alpha.test//obj-monitor",
             "tag": "roamer"})])

        def scenario():
            reply = yield from driver.meet(
                pair_cluster.vm_uri("alpha.test", "vm_pickle"),
                briefcase, timeout=60)
            assert reply.get_text(wellknown.STATUS) == "ok", \
                reply.get_text(wellknown.ERROR)
            message = yield from driver.recv(timeout=60)
            # Drain in-flight async monitor posts before reading the log.
            yield pair_cluster.kernel.timeout(1)
            return message.briefcase.get_text("HOPS")
        assert pair_cluster.run(scenario()) == "2"
        arrived = [host for _t, host, event in monitor_log.locations()
                   if event == "arrived"]
        assert arrived == ["alpha.test", "beta.test"]
        assert monitor_log.events[-1]["host"] == "beta.test"
