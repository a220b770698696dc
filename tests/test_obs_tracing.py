"""Span tracer semantics, trace export, and the system-level guarantees:
hop/transfer spans nest in virtual time, and disabled telemetry is a
true no-op (identical event dispatch)."""

import json

import pytest

from repro.obs.demo import run_traced_quickstart
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import NULL_SPAN, Span, Tracer


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class TestSpan:
    def test_begin_end_uses_clock(self):
        clock = FakeClock(1.0)
        tracer = Tracer(clock)
        span = tracer.begin("work", track="t")
        clock.t = 3.5
        span.end()
        assert span.start == 1.0
        assert span.end_time == 3.5
        assert span.duration == 2.5
        assert span.finished

    def test_end_is_idempotent(self):
        tracer = Tracer(FakeClock())
        span = tracer.begin("w")
        span.end(at=2.0)
        span.end(at=9.0)
        assert span.end_time == 2.0
        assert len(tracer.spans) == 1

    def test_end_args(self):
        tracer = Tracer(FakeClock())
        span = tracer.begin("w", kind="x")
        span.end(outcome="ok")
        assert span.args == {"kind": "x", "outcome": "ok"}

    def test_record_explicit_times(self):
        tracer = Tracer()
        span = tracer.record("past", 1.0, 4.0, track="t")
        assert span.duration == 3.0
        assert tracer.spans == [span]

    def test_record_rejects_negative_duration(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.record("bad", 5.0, 1.0)

    def test_context_manager_sets_outcome(self):
        tracer = Tracer(FakeClock())
        with tracer.span("ok-path"):
            pass
        with pytest.raises(RuntimeError):
            with tracer.span("err-path"):
                raise RuntimeError("boom")
        outcomes = {s.name: s.args["outcome"] for s in tracer.spans}
        assert outcomes == {"ok-path": "ok", "err-path": "error"}

    def test_open_count_tracks_unfinished(self):
        tracer = Tracer(FakeClock())
        span = tracer.begin("w")
        assert tracer.open_count == 1
        span.end()
        assert tracer.open_count == 0

    def test_open_count_stays_exact_across_repeated_ends(self):
        tracer = Tracer(FakeClock())
        outer, inner = tracer.begin("outer"), tracer.begin("inner")
        inner.end()
        inner.end()
        assert tracer.open_count == 1
        with tracer.span("scoped"):
            assert tracer.open_count == 2
        outer.end()
        outer.end()
        assert tracer.open_count == 0
        assert len(tracer.spans) == 3


class TestDisabledTracer:
    def test_begin_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.begin("w", track="t")
        assert span is NULL_SPAN
        span.end(outcome="whatever")
        assert tracer.spans == []
        assert tracer.instants == []

    def test_record_and_instant_are_no_ops(self):
        tracer = Tracer(enabled=False)
        tracer.record("w", 0.0, 1.0)
        tracer.instant("i")
        assert tracer.spans == []
        assert tracer.instants == []

    def test_null_span_never_reports_progress(self):
        assert NULL_SPAN.duration is None
        assert not NULL_SPAN.finished


class TestCapsAndFind:
    def test_max_spans_drops_overflow(self):
        tracer = Tracer(FakeClock(), max_spans=2)
        for i in range(4):
            tracer.record(f"s{i}", 0.0, 1.0)
        assert len(tracer.spans) == 2
        assert tracer.dropped == 2

    def test_find_by_name_track_category(self):
        tracer = Tracer()
        tracer.record("a", 0, 1, category="x", track="t1")
        tracer.record("b", 0, 1, category="x", track="t2")
        assert len(tracer.find(category="x")) == 2
        assert [s.name for s in tracer.find(track="t2")] == ["b"]
        assert tracer.find(name="a", track="t2") == []


class TestExport:
    def _small_tracer(self):
        tracer = Tracer(FakeClock())
        tracer.record("outer", 0.0, 4.0, category="c", track="t")
        tracer.record("inner", 1.0, 2.0, category="c", track="t")
        tracer.instant("mark", track="t", at=3.0, note="hi")
        return tracer

    def test_jsonl_rows_parse_and_sort(self):
        rows = [json.loads(line) for line in
                self._small_tracer().to_jsonl().splitlines()]
        assert [r["name"] for r in rows] == ["outer", "inner", "mark"]
        assert rows[0]["dur"] == 4.0
        assert rows[2]["kind"] == "instant"

    def test_chrome_document_shape(self):
        document = self._small_tracer().to_chrome()
        events = document["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {m["name"] for m in metas} == {"process_name",
                                              "thread_name"}
        assert len(spans) == 2 and len(instants) == 1
        outer = next(e for e in spans if e["name"] == "outer")
        assert outer["ts"] == 0.0 and outer["dur"] == 4.0 * 1e6
        assert all(e["pid"] == 1 for e in spans)

    def test_export_round_trip_through_files(self, tmp_path):
        tracer = self._small_tracer()
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        n_events = tracer.export_chrome(str(chrome))
        n_rows = tracer.export_jsonl(str(jsonl))
        loaded = json.loads(chrome.read_text())
        assert len(loaded["traceEvents"]) == n_events
        assert loaded["otherData"]["clock"] == "virtual-seconds"
        assert len(jsonl.read_text().splitlines()) == n_rows == 3


class TestTelemetryFacade:
    @pytest.mark.parametrize("enabled", [False, True],
                             ids=["off", "on"])
    def test_the_constructor_decides_every_half(self, enabled):
        telemetry = Telemetry(enabled=enabled)
        assert telemetry.enabled is enabled
        assert telemetry.metrics.enabled is enabled
        assert telemetry.tracer.enabled is enabled
        assert telemetry.flight.enabled is enabled
        assert telemetry.snapshot()["enabled"] is enabled
        assert telemetry.agent_stats("a")["enabled"] is enabled

    def test_a_built_world_has_no_switch_and_no_reset(self):
        from repro.obs.flightrec import FlightRecorder
        from repro.obs.metrics import Metric, MetricsRegistry
        from repro.obs.propagation import TraceIdAllocator

        for owner, names in ((Telemetry, ("enable", "disable", "reset")),
                             (MetricsRegistry, ("reset",)),
                             (Metric, ("clear",)),
                             (Tracer, ("reset",)),
                             (FlightRecorder, ("reset",)),
                             (TraceIdAllocator, ("reset",))):
            for name in names:
                assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        # ``enabled`` is a plain attribute, not a property with a setter.
        assert "enabled" not in vars(MetricsRegistry)

    def test_flush_ledger_emits_spans_and_counters(self):
        from repro.sim.ledger import CostLedger

        ledger = CostLedger()
        ledger.add("cpu", 2.0)
        ledger.add("net", 1.0, nbytes=500)
        telemetry = Telemetry(enabled=True)
        total = telemetry.flush_ledger(ledger, track="cost:h", start=10.0,
                                       host="h")
        assert total == pytest.approx(3.0)
        spans = sorted(telemetry.tracer.spans, key=lambda s: s.start)
        assert [(s.name, s.start, s.end_time) for s in spans] == \
            [("cost:cpu", 10.0, 12.0), ("cost:net", 12.0, 13.0)]
        assert telemetry.metrics.value("cost.seconds", category="cpu",
                                       host="h") == 2.0
        assert telemetry.metrics.value("cost.bytes", category="net",
                                       host="h") == 500

    def test_flush_ledger_disabled_still_returns_total(self):
        from repro.sim.ledger import CostLedger

        ledger = CostLedger()
        ledger.add("cpu", 2.0)
        telemetry = Telemetry(enabled=False)
        assert telemetry.flush_ledger(ledger, track="t") == 2.0
        assert telemetry.tracer.spans == []


class TestTracedQuickstart:
    """The acceptance scenario behind ``repro trace``."""

    @pytest.fixture(scope="class")
    def traced(self):
        return run_traced_quickstart()

    def test_scenario_completes(self, traced):
        cluster, result = traced
        assert len(result.folder("GREETINGS").texts()) == 3

    def test_hop_spans_contain_their_transfers(self, traced):
        cluster, _ = traced
        tracer = cluster.telemetry.tracer
        hops = tracer.find(name="go", track="agent:hello")
        assert len(hops) == 2
        transfers = tracer.find(name="net.transfer")
        assert transfers
        for hop in hops:
            dst = hop.args["dst_host"]
            inside = [t for t in transfers
                      if t.track.endswith(f"->{dst}")
                      and hop.start <= t.start
                      and t.end_time <= hop.end_time]
            assert inside, f"no transfer nested in hop to {dst}"

    def test_launch_spans_nest_inside_hops(self, traced):
        cluster, _ = traced
        tracer = cluster.telemetry.tracer
        for hop in tracer.find(name="go", track="agent:hello"):
            dst = hop.args["dst_host"]
            launches = [s for s in tracer.find(name="vm.launch")
                        if s.track == f"vm:{dst}"
                        and hop.start <= s.start
                        and s.end_time <= hop.end_time]
            assert launches, f"no vm.launch inside hop to {dst}"

    def test_run_spans_tile_the_hosts(self, traced):
        cluster, _ = traced
        tracer = cluster.telemetry.tracer
        runs = sorted(tracer.find(name="run:hello"),
                      key=lambda s: s.start)
        assert [s.track for s in runs] == [
            "host:cl1.cs.uit.no", "host:cl2.cs.uit.no",
            "host:cl3.cs.uit.no"]
        assert [s.args["outcome"] for s in runs] == \
            ["moved", "moved", "done"]
        for earlier, later in zip(runs, runs[1:]):
            assert later.start >= earlier.start

    def test_hop_counters_match_spans(self, traced):
        cluster, _ = traced
        metrics = cluster.telemetry.metrics
        assert metrics.value("agent.hops", agent="hello") == 2
        assert metrics.value("agent.migrations", op="go") == 2

    def test_chrome_export_of_the_scenario(self, traced, tmp_path):
        cluster, _ = traced
        path = tmp_path / "quickstart.json"
        cluster.telemetry.tracer.export_chrome(str(path))
        document = json.loads(path.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert {"go", "net.transfer", "vm.launch", "run:hello"} <= names
        tracks = {e["args"]["name"] for e in document["traceEvents"]
                  if e["name"] == "thread_name"}
        assert "agent:hello" in tracks


class TestNoOpOverhead:
    """Acceptance: disabling telemetry changes *nothing* but the records."""

    def test_dispatch_count_and_clock_are_invariant(self):
        enabled_cluster, _ = run_traced_quickstart(
            telemetry=Telemetry(enabled=True))
        disabled_cluster, _ = run_traced_quickstart(
            telemetry=Telemetry(enabled=False))
        assert enabled_cluster.kernel.processed_events == \
            disabled_cluster.kernel.processed_events
        assert enabled_cluster.kernel.now == disabled_cluster.kernel.now
        assert disabled_cluster.telemetry.tracer.spans == []
        assert disabled_cluster.telemetry.metrics.snapshot() == {}
        assert enabled_cluster.telemetry.tracer.spans
