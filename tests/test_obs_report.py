"""The reporting layer: itinerary/SLO reports, OpenMetrics text, the
flight recorder, and the percentile math they share.

Determinism is the headline contract: ``repro report --json`` and
``repro metrics`` must be byte-for-byte identical across two identical
runs (CI diffs them), so every test here that renders twice compares
exact strings.
"""

import json

import pytest

from repro.chaos.scenario import run_chaos
from repro.obs.demo import run_traced_quickstart
from repro.obs.flightrec import MAX_DUMPS, FlightRecorder
from repro.obs.metrics import (
    MetricsRegistry,
    estimate_quantile,
    summarize_sample,
)
from repro.obs.openmetrics import metric_name, render_openmetrics
from repro.obs.report import (
    build_report,
    render_report_html,
    render_report_json,
)


def quickstart_report():
    cluster, _ = run_traced_quickstart()
    return build_report(cluster.telemetry,
                        meta={"scenario": "traced-quickstart"})


# -- percentile math ----------------------------------------------------------------


def histogram_sample(values, buckets=(1.0, 10.0, 100.0)):
    registry = MetricsRegistry(enabled=True)
    histogram = registry.histogram("x", buckets=buckets)
    for value in values:
        histogram.observe(value)
    return histogram.samples()[0]["value"]


class TestQuantiles:
    def test_empty_sample_has_no_quantiles(self):
        sample = {"count": 0, "sum": 0.0, "min": None, "max": None,
                  "buckets": {"1": 0, "+inf": 0}}
        assert estimate_quantile(sample, 0.5) is None
        summary = summarize_sample(sample)
        assert summary["count"] == 0 and summary["p99"] is None

    def test_quantiles_are_ordered_and_clamped(self):
        sample = histogram_sample([0.5, 2.0, 3.0, 50.0, 80.0])
        summary = summarize_sample(sample)
        assert summary["count"] == 5
        assert summary["min"] == 0.5 and summary["max"] == 80.0
        assert summary["min"] <= summary["p50"] <= summary["p95"] \
            <= summary["p99"] <= summary["max"]

    def test_overflow_bucket_estimates_use_the_observed_max(self):
        sample = histogram_sample([500.0, 900.0])  # all beyond bounds
        assert estimate_quantile(sample, 0.99) == 900.0

    def test_invalid_quantile_raises(self):
        with pytest.raises(ValueError):
            estimate_quantile(histogram_sample([1.0]), 1.5)


# -- the flight recorder ------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_per_host(self):
        recorder = FlightRecorder(capacity=3, enabled=True,
                                  clock=lambda: 1.0)
        for n in range(10):
            recorder.record("h", "tick", n=n)
        events = recorder.snapshot("h")
        assert len(events) == 3
        assert [e["n"] for e in events] == [7, 8, 9]

    def test_disabled_recorder_stores_nothing(self):
        recorder = FlightRecorder(enabled=False)
        recorder.record("h", "tick")
        assert recorder.hosts() == []
        assert recorder.snapshot("h") == []

    def test_disabled_recorder_dumps_nothing(self):
        recorder = FlightRecorder(enabled=False, clock=lambda: 0.0)
        recorder.record("h", "tick")
        assert recorder.dump("h", reason="x") is None
        assert recorder.dumps == [] and recorder.dumps_evicted == 0

    def test_dump_freezes_the_ring(self):
        recorder = FlightRecorder(capacity=4, enabled=True,
                                  clock=lambda: 2.5)
        recorder.record("h", "admitted", wire_bytes=10)
        dump = recorder.dump("h", reason="crash-test")
        recorder.record("h", "after")  # must not leak into the dump
        assert dump["host"] == "h" and dump["reason"] == "crash-test"
        assert dump["at"] == 2.5 and dump["capacity"] == 4
        assert [e["kind"] for e in dump["events"]] == ["admitted"]
        assert recorder.dumps == [dump]

    def test_dump_list_is_capped(self):
        recorder = FlightRecorder(enabled=True, clock=lambda: 0.0)
        for n in range(MAX_DUMPS + 5):
            recorder.record("h", "tick", n=n)
            recorder.dump("h", reason=f"r{n}")
        assert len(recorder.dumps) == MAX_DUMPS
        assert recorder.dumps_evicted == 5
        assert recorder.dumps[0]["reason"] == "r5"  # oldest evicted

    def test_chaos_crash_emits_a_dump_with_recent_events(self):
        document = run_chaos(seed=7, plan="mid-crash", recovery=True)
        dumps = document["flight_recorder"]["dumps"]
        crash_dumps = [d for d in dumps if d["reason"] == "host-crash"]
        assert crash_dumps
        dump = crash_dumps[0]
        assert dump["events"], "the black box must not be empty"
        assert dump["events"][-1]["kind"] == "crash"
        assert all(e["t"] <= dump["at"] for e in dump["events"])


# -- the report document ------------------------------------------------------------


class TestReport:
    def test_report_json_is_byte_deterministic(self):
        one = render_report_json(quickstart_report())
        two = render_report_json(quickstart_report())
        assert one == two

    def test_report_structure(self):
        document = quickstart_report()
        assert document["schema"] == "repro.report/1"
        assert document["meta"] == {"scenario": "traced-quickstart"}
        assert len(document["traces"]) == 1
        trace = document["traces"][0]
        assert len(trace["hosts"]) == 3
        assert trace["n_hops"] == 2
        kinds = [row["kind"] for row in trace["itinerary"]]
        assert kinds.count("residency") == 3
        assert kinds.count("hop") == 2
        assert "agent.hop_seconds" in document["slo"]
        assert "fw.admission_bytes" in document["slo"]
        hop_slo = document["slo"]["agent.hop_seconds"][0]
        assert hop_slo["count"] == 2
        assert hop_slo["p50"] <= hop_slo["p99"] <= hop_slo["max"]
        assert document["overview"]["agent.hops"] == 2

    def test_report_html_is_self_contained(self):
        document = quickstart_report()
        html_text = render_report_html(document)
        assert html_text.startswith("<!DOCTYPE html>")
        # Self-contained: no external stylesheets/scripts/images.
        assert "<link" not in html_text
        assert "<script src" not in html_text
        assert "<img" not in html_text
        assert document["traces"][0]["trace_id"] in html_text
        # The canonical JSON is embedded for tooling.
        embedded = html_text.split(
            "<script type='application/json' id='report-data'>")[1]
        embedded = embedded.split("</script>")[0].strip()
        assert json.loads(embedded) == json.loads(
            render_report_json(document))

    def test_empty_telemetry_renders(self):
        from repro.obs.telemetry import Telemetry

        document = build_report(Telemetry(enabled=True))
        assert document["traces"] == []
        assert render_report_html(document).startswith("<!DOCTYPE html>")


# -- OpenMetrics text ---------------------------------------------------------------


class TestOpenMetrics:
    def test_names_are_legalised(self):
        assert metric_name("fw.queue_wait_seconds") == \
            "fw_queue_wait_seconds"
        assert metric_name("a-b.c") == "a_b_c"

    def test_render_is_deterministic_and_terminated(self):
        def render():
            cluster, _ = run_traced_quickstart()
            return render_openmetrics(cluster.telemetry.metrics.snapshot())
        one, two = render(), render()
        assert one == two
        assert one.endswith("# EOF\n")

    def test_counters_gain_total_suffix(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("agent.hops", 3, agent="a")
        text = render_openmetrics(registry.snapshot())
        assert "# TYPE agent_hops counter" in text
        assert 'agent_hops_total{agent="a"} 3' in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("lat", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 99.0):
            histogram.observe(value)
        text = render_openmetrics(registry.snapshot())
        lines = [l for l in text.splitlines() if l.startswith("lat_")]
        assert lines == [
            'lat_bucket{le="1"} 2',
            'lat_bucket{le="10"} 3',
            'lat_bucket{le="+Inf"} 4',
            "lat_sum 105.2",
            "lat_count 4",
        ]

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry(enabled=True)
        registry.inc("c", host='a"b\\c')
        text = render_openmetrics(registry.snapshot())
        assert 'c_total{host="a\\"b\\\\c"} 1' in text
