"""Causal trace propagation: one trace id per itinerary, across hops,
retries, crashes, rejections — and zero overhead when telemetry is off.

The tentpole contract under test: every migration step of one agent is
stamped with the same ``trace_id`` and parent-linked span ids, so the
whole itinerary is a single causal tree; the context rides the message
*envelope* in-sim (zero wire bytes) and the reserved ``TRACE-CONTEXT``
briefcase folder on the raw wire (always stripped on receipt).
"""

import json

import pytest

from repro.core import codec, wellknown
from repro.core.briefcase import Briefcase
from repro.core.errors import QuotaExceededError
from repro.core.retry import RetryPolicy
from repro.core.uri import AgentUri
from repro.firewall.governor import GovernorConfig, QuotaSpec
from repro.firewall.message import SenderInfo
from repro.firewall.policy import Policy
from repro.obs import propagation
from repro.obs.demo import run_traced_quickstart
from repro.obs.propagation import TraceContext, TraceIdAllocator
from repro.obs.telemetry import Telemetry
from repro.system.cluster import TaxCluster
from repro.vm import loader
from tests.golden import REGENERATE, literal


def metered_cluster(*hosts):
    cluster = TaxCluster(telemetry=Telemetry(enabled=True))
    for host in hosts:
        cluster.add_node(host)
    for i, a in enumerate(hosts):
        for b in hosts[i + 1:]:
            cluster.network.link(a, b)
    return cluster


def spans_named(tracer, name):
    return [s for s in tracer.spans if s.name == name]


def instants_named(tracer, name):
    return [i for i in tracer.instants if i["name"] == name]


# -- the context and its header ------------------------------------------------------


class TestTraceContextHeader:
    def test_header_round_trip(self):
        context = TraceContext(trace_id="t00000001", span_id="s00000002",
                               parent_span_id="s00000001", hop=3)
        header = context.to_header()
        assert header == "00-t00000001-s00000002-s00000001-03"
        assert TraceContext.from_header(header) == context

    def test_header_round_trip_without_parent(self):
        context = TraceContext(trace_id="t00000001", span_id="s00000001")
        assert TraceContext.from_header(context.to_header()) == context
        assert context.parent_span_id is None
        assert context.hop == 0

    @pytest.mark.parametrize("bad", [
        "", "garbage", "00-t1-s1", "99-t1-s2-s1-00", "00-t1-s2-s1-zz",
        "00--s2-s1-00", "00-t1--s1-00", "00-t1-s2-s1-00-extra",
    ])
    def test_malformed_headers_parse_to_none(self, bad):
        # Hostile wire input must degrade to "untraced", never crash.
        assert TraceContext.from_header(bad) is None

    def test_allocator_is_deterministic(self):
        one, two = TraceIdAllocator(), TraceIdAllocator()
        assert one.root() == two.root()
        assert one.new_trace_id() == two.new_trace_id()
        one.reset()
        assert one.root() == TraceIdAllocator().root()

    def test_child_advances_hop_only_across_host_boundaries(self):
        ids = TraceIdAllocator()
        root = ids.root()
        same_hop = ids.child(root)
        next_hop = ids.child(same_hop, advance_hop=True)
        assert root.hop == 0
        assert same_hop.hop == 0 and same_hop.parent_span_id == root.span_id
        assert next_hop.hop == 1
        assert {root.trace_id} == {same_hop.trace_id, next_hop.trace_id}


# -- the reserved wire folder --------------------------------------------------------


class TestWireFolder:
    def test_trace_context_is_a_reserved_system_folder(self):
        assert wellknown.TRACE_CONTEXT in wellknown.SYSTEM_FOLDERS

    def test_inject_extract_survives_codec_round_trip(self):
        context = TraceIdAllocator().root()
        briefcase = Briefcase({"DATA": ["payload"]})
        propagation.inject(briefcase, context)
        wire = codec.encode(briefcase)
        assert codec.decode(wire).has(wellknown.TRACE_CONTEXT)
        decoded, wire_only = codec.decode_arrival(wire)
        header, = wire_only[wellknown.TRACE_CONTEXT]
        assert TraceContext.from_header(header.decode()) == context
        # The arrival decoder strips the folder: it exists only on the
        # wire.
        assert not decoded.has(wellknown.TRACE_CONTEXT)
        assert decoded.folder("DATA").texts() == ["payload"]

    def test_extract_without_folder_is_none(self):
        assert codec.decode_arrival(codec.encode(Briefcase()))[1] == {}

    def test_malformed_folder_is_stripped_and_ignored(self):
        briefcase = Briefcase()
        briefcase.put(wellknown.TRACE_CONTEXT, "not-a-header")
        decoded, wire_only = codec.decode_arrival(codec.encode(briefcase))
        header, = wire_only[wellknown.TRACE_CONTEXT]
        assert TraceContext.from_header(header.decode()) is None
        assert not decoded.has(wellknown.TRACE_CONTEXT)

    def test_firewall_adopts_trace_from_raw_wire(self):
        cluster = metered_cluster("solo.test")
        driver = cluster.node("solo.test").driver()
        external = TraceContext(trace_id="t0000feed",
                                span_id="s0000beef", hop=4)
        briefcase = Briefcase({"BODY": ["external"]})
        propagation.inject(briefcase, external)
        wire = codec.encode(briefcase)

        def scenario():
            cluster.node("solo.test").firewall.receive_wire(
                wire, driver.uri,
                SenderInfo(principal="peer", host="elsewhere.example"))
            message = yield from driver.recv(timeout=10)
            return message
        message = cluster.run(scenario())
        assert message.trace == external
        assert not message.briefcase.has(wellknown.TRACE_CONTEXT)

    def test_disabled_telemetry_still_strips_but_discards(self):
        cluster = TaxCluster()  # telemetry off
        cluster.add_node("solo.test")
        driver = cluster.node("solo.test").driver()
        briefcase = Briefcase({"BODY": ["external"]})
        propagation.inject(briefcase, TraceIdAllocator().root())
        wire = codec.encode(briefcase)

        def scenario():
            cluster.node("solo.test").firewall.receive_wire(
                wire, driver.uri,
                SenderInfo(principal="peer", host="elsewhere.example"))
            message = yield from driver.recv(timeout=10)
            return message
        message = cluster.run(scenario())
        assert message.trace is None
        assert not message.briefcase.has(wellknown.TRACE_CONTEXT)


# -- the acceptance itinerary --------------------------------------------------------


class TestOneTraceAcrossHosts:
    def test_multi_hop_run_is_one_causal_tree(self):
        cluster, _ = run_traced_quickstart()
        tracer = cluster.telemetry.tracer
        runs = sorted(spans_named(tracer, "run:hello"),
                      key=lambda s: s.start)
        assert len(runs) == 3
        trace_ids = {s.args["trace_id"] for s in runs}
        assert len(trace_ids) == 1  # ONE trace id spans >= 3 hosts
        assert len({s.track for s in runs}) == 3
        assert [s.args["hop"] for s in runs] == [1, 2, 3]

        # Parentage: run@cl1 -> go -> run@cl2 -> go -> run@cl3.
        gos = sorted(spans_named(tracer, "go"), key=lambda s: s.start)
        assert len(gos) == 2
        for hop, (residency, go) in enumerate(zip(runs, gos), start=1):
            assert go.args["trace_id"] == residency.args["trace_id"]
            assert go.args["parent_span_id"] == residency.args["span_id"]
            assert go.args["hop"] == hop
            assert runs[hop].args["parent_span_id"] == go.args["span_id"]

    def test_chrome_export_has_cross_track_flow_events(self, tmp_path):
        cluster, _ = run_traced_quickstart()
        out = tmp_path / "trace.json"
        cluster.telemetry.tracer.export_chrome(str(out))
        events = json.loads(out.read_text())["traceEvents"]
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        assert starts and len(starts) == len(finishes)
        assert {e["cat"] for e in starts} == {"flow"}
        by_id = {e["id"]: e for e in starts}
        for finish in finishes:
            start = by_id[finish["id"]]
            assert finish["bp"] == "e"
            # A flow arrow only makes sense between different tracks.
            assert (start["pid"], start["tid"]) != \
                (finish["pid"], finish["tid"])

    def test_trace_export_is_deterministic_across_runs(self, tmp_path):
        paths = []
        for n in range(2):
            cluster, _ = run_traced_quickstart()
            path = tmp_path / f"trace{n}.json"
            cluster.telemetry.tracer.export_chrome(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


# -- survival through failure paths --------------------------------------------------


def echo_agent(ctx, bc):
    while True:
        message = yield from ctx.recv()
        yield from ctx.reply(message, Briefcase(
            {"ECHO": [message.briefcase.get_text("BODY") or ""]}))


def late_agent(ctx, bc):
    message = yield from ctx.recv(timeout=60)
    bc.append("TRACE-SEEN",
              message.trace.trace_id if message.trace else "none")
    yield from ctx.send(bc.get_text("HOME"), bc.snapshot())
    return "done"


class TestTraceSurvival:
    def test_retries_link_to_the_senders_trace(self):
        cluster = metered_cluster("alpha.test", "beta.test")
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(echo_agent),
                               agent_name="echo")
        beta_driver = cluster.node("beta.test").driver(name="launcher")

        def launch():
            reply = yield from beta_driver.meet(
                cluster.vm_uri("beta.test"), briefcase, timeout=30)
            return reply.get_text("AGENT-URI")
        echo_uri = cluster.run(launch())

        driver = cluster.node("alpha.test").driver()
        driver.configure_retry(RetryPolicy(
            max_attempts=5, base_delay=0.2, multiplier=2.0, jitter=0.0))
        cluster.network.set_link_up("alpha.test", "beta.test", False)

        def healer():
            yield cluster.kernel.timeout(0.5)
            cluster.network.set_link_up("alpha.test", "beta.test", True)

        def scenario():
            cluster.kernel.spawn(healer())
            yield from driver.send(AgentUri.parse(echo_uri),
                                   Briefcase({"BODY": ["hi"]}))
            return "sent"
        assert cluster.run(scenario()) == "sent"

        retries = instants_named(cluster.telemetry.tracer,
                                 "transport.retry")
        assert retries
        assert driver.trace is not None
        for instant in retries:
            assert instant["args"]["trace_id"] == driver.trace.trace_id
            assert instant["args"]["parent_span_id"]

    def test_dead_letter_retransmit_preserves_the_trace(self):
        cluster = metered_cluster("alpha.test", "beta.test")
        beta = cluster.node("beta.test")
        driver = cluster.node("alpha.test").driver()
        target = AgentUri.parse("tacoma://beta.test//late")

        def park():
            yield from driver.send(target, Briefcase({"BODY": ["x"]}),
                                   queue_timeout=300)
        cluster.run(park())
        assert driver.trace is not None
        trace_id = driver.trace.trace_id

        beta.crash()
        assert len(beta.firewall.pending.dead_letters) == 1
        dead_trace = beta.firewall.pending.dead_letters[0].message.trace
        assert dead_trace is not None
        assert dead_trace.trace_id == trace_id
        beta.restart()

        retransmits = instants_named(cluster.telemetry.tracer,
                                     "fw.retransmit")
        assert len(retransmits) == 1
        assert retransmits[0]["args"]["trace_id"] == trace_id
        assert retransmits[0]["args"]["parent_span_id"] == \
            dead_trace.span_id

        # The retransmitted message reaches a re-registered agent with
        # its causal identity intact.
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(late_agent),
                               agent_name="late")
        briefcase.put("HOME", str(driver.uri))
        beta_driver = beta.driver(name="d2")

        def relaunch():
            yield from beta_driver.meet(cluster.vm_uri("beta.test"),
                                        briefcase, timeout=30)
            message = yield from driver.recv(timeout=30)
            return message.briefcase.folder("TRACE-SEEN").texts()
        assert cluster.run(relaunch()) == [trace_id]

    def test_governor_rejection_links_to_the_trace(self):
        cluster = TaxCluster(telemetry=Telemetry(enabled=True))
        cluster.add_node("solo.test", policy=Policy(
            governor=GovernorConfig(quotas={
                "alice": QuotaSpec(messages_per_second=0.001, burst=1),
            })))
        driver = cluster.node("solo.test").driver(
            name="alice-driver", principal="alice")
        target = AgentUri.parse("ag_fs")

        def scenario():
            yield from driver.send(target, Briefcase({"BODY": ["one"]}))
            with pytest.raises(QuotaExceededError):
                yield from driver.send(target,
                                       Briefcase({"BODY": ["two"]}))
            return "done"
        assert cluster.run(scenario()) == "done"

        rejected = instants_named(cluster.telemetry.tracer,
                                  "fw.admission_rejected")
        assert [i["args"]["reason"] for i in rejected] == ["quota"]
        assert driver.trace is not None
        assert rejected[0]["args"]["trace_id"] == driver.trace.trace_id
        assert rejected[0]["args"]["parent_span_id"]

    def test_poison_quarantine_dumps_the_flight_recorder(self):
        cluster = metered_cluster("solo.test")
        firewall = cluster.node("solo.test").firewall
        target = AgentUri(host="solo.test", name="nobody")
        firewall.receive_wire(
            b"\x00garbage-that-cannot-decode",
            target, SenderInfo(principal="poisoner", host="evil.example"))
        dumps = cluster.telemetry.flight.dumps
        assert [d["reason"] for d in dumps] == ["poison-quarantine"]
        assert dumps[0]["host"] == "solo.test"
        assert any(e["kind"] == "poison" for e in dumps[0]["events"])


# -- the no-op path (telemetry off) --------------------------------------------------


class TestDisabledTelemetryOverhead:
    def test_tracing_adds_zero_wire_bytes_and_no_folder(self):
        """Satellite contract: enabled vs disabled telemetry move the
        same bytes and finish at the same virtual instant — the trace
        context never touches the in-sim wire."""
        runs = {}
        for enabled in (True, False):
            cluster, result = run_traced_quickstart(
                telemetry=Telemetry(enabled=enabled))
            assert len(result.folder("GREETINGS").texts()) == 3
            assert not result.has(wellknown.TRACE_CONTEXT)
            runs[enabled] = (cluster.network.total_remote_bytes(),
                             cluster.network.total_remote_messages(),
                             cluster.kernel.now)
        assert runs[True] == runs[False]
        # Pinned to what the quickstart has always moved, so a change
        # that shifts both runs alike is caught too.
        remote_bytes, remote_messages, final_now = runs[False]
        assert {"remote_bytes": remote_bytes,
                "remote_messages": remote_messages,
                "final_now": round(final_now, 9)} == \
            literal("quickstart"), REGENERATE

    def test_disabled_facade_allocates_no_contexts(self):
        telemetry = Telemetry(enabled=False)
        assert telemetry.new_trace() is None
        assert telemetry.child_context(None) is None
        cluster, _ = run_traced_quickstart(telemetry=telemetry)
        assert cluster.telemetry.tracer.spans == []
        assert cluster.telemetry.flight.hosts() == []
