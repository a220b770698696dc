"""Metrics registry semantics: families, labels, histograms, no-op mode."""

import json
import math
import os
import sys

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    CounterSeries,
    Gauge,
    GaugeSeries,
    Histogram,
    HistogramSeries,
    MetricError,
    MetricsRegistry,
)
from repro.obs.openmetrics import render_openmetrics


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        registry.inc("hits", host="a")
        registry.inc("hits", 2, host="b")
        assert registry.value("hits", host="a") == 1
        assert registry.value("hits", host="b") == 2
        assert registry.value("hits") is None

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.inc("x", a="1", b="2")
        registry.inc("x", b="2", a="1")
        assert registry.value("x", b="2", a="1") == 2

    def test_label_values_are_stringified(self):
        registry = MetricsRegistry()
        registry.inc("x", port=80)
        assert registry.value("x", port="80") == 1

    def test_equal_but_differently_typed_values_stay_apart(self):
        # 1, True and 1.0 are one dict key but three label strings; a
        # memo keyed on the values as passed must not merge them.
        for order in ((1, True, 1.0), (1.0, True, 1), (True, 1.0, 1)):
            registry = MetricsRegistry()
            counter = registry.counter("held")
            for value in order:
                registry.inc("c", n=value)
                counter.inc(n=value)
            for family in (registry.get("c"), counter):
                assert family.series() == {(("n", "1"),): 1,
                                           (("n", "True"),): 1,
                                           (("n", "1.0"),): 1}

    def test_str_subclass_values_use_their_own_str(self):
        class Loud(str):
            def __str__(self):
                return self.upper()

        for values in (("x", Loud("x")), (Loud("x"), "x")):
            registry = MetricsRegistry()
            for value in values:
                registry.inc("c", n=value)
            assert registry.get("c").series() == {(("n", "x"),): 1,
                                                  (("n", "X"),): 1}

    def test_unhashable_label_values_are_stringified(self):
        registry = MetricsRegistry()
        registry.inc("c", path=["a", "b"])
        registry.inc("c", path=["a", "b"])
        assert registry.value("c", path="['a', 'b']") == 2

    def test_repeated_label_sets_resolve_to_one_series_in_any_order(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        for _ in range(3):
            counter.inc(a="1", b="2")
            registry.inc("c", b="2", a="1")
            counter.inc()
            counter.inc(a=1)
        assert counter.series() == {(("a", "1"), ("b", "2")): 6, (): 3,
                                    (("a", "1"),): 3}
        series = counter.labels(a="1", b="2")
        assert series is counter.labels(b="2", a="1")
        assert series is not counter.labels(a="1")
        assert counter.labels(a=1) is counter.labels(a="1")
        assert counter.labels() is counter.labels()
        assert (series.value, counter.labels().value) == (6, 3)

    def test_counters_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("ups").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value() == 7

    def test_gauges_can_fall(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue")
        gauge.set(5, host="a")
        gauge.set(2, host="a")
        assert registry.value("queue", host="a") == 2


class TestHistogram:
    def test_observations_land_in_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        sample = histogram.samples()[0]["value"]
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(5.555)
        assert sample["min"] == 0.005
        assert sample["max"] == 5.0
        assert sample["buckets"] == {"0.01": 1, "0.1": 1, "1": 1,
                                     "+inf": 1}

    def test_boundary_value_falls_in_lower_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 2.0))
        histogram.observe(1.0)
        sample = histogram.samples()[0]["value"]
        assert sample["buckets"]["1"] == 1

    def test_bucket_choice_matches_the_linear_scan(self):
        def scan(bounds, value):
            for i, bound in enumerate(bounds):
                if value <= bound:
                    return i
            return len(bounds)

        for bounds in (DEFAULT_BUCKETS, (1.0,), (0.0, 5, 5.5, 1e6),
                       (-3.0, -1.0, 2.0)):
            probes = [-math.inf, math.inf]
            for bound in bounds:
                probes += [bound, math.nextafter(bound, -math.inf),
                           math.nextafter(bound, math.inf), int(bound)]
            for value in probes:
                registry = MetricsRegistry()
                registry.histogram("h", buckets=bounds).observe(value)
                [state] = registry.get("h").series().values()
                expected = [0] * (len(bounds) + 1)
                expected[scan(bounds, value)] = 1
                assert state.bucket_counts == expected, (bounds, value)

    def test_default_buckets_are_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS

    def test_empty_bucket_list_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=())


class TestRegistry:
    def test_families_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert isinstance(registry.counter("c"), Counter)
        assert isinstance(registry.gauge("g"), Gauge)
        assert isinstance(registry.histogram("h"), Histogram)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("series")
        with pytest.raises(MetricError):
            registry.gauge("series")

    def test_kind_conflict_raises_from_the_recorders_too(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.gauge("g")
        with pytest.raises(MetricError):
            registry.observe("c", 1.0)
        with pytest.raises(MetricError):
            registry.inc("g")
        # A kind conflict wins over a bad amount, as it always did.
        with pytest.raises(MetricError):
            registry.inc("g", -1)
        with pytest.raises(ValueError, match="'c' cannot decrease"):
            registry.inc("c", -1)
        assert registry.get("c").series() == {}

    def test_histogram_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(2, 1))
        assert registry.histogram("h") is histogram
        assert registry.histogram("h", buckets=(1, 2)) is histogram
        with pytest.raises(MetricError, match="buckets"):
            registry.histogram("h", buckets=(5, 6))
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=DEFAULT_BUCKETS)
        # The convenience recorder names no buckets: whatever exists.
        registry.observe("h", 1.5)
        assert histogram.samples()[0]["value"]["buckets"] == \
            {"1": 0, "2": 1, "+inf": 0}

    def test_observe_first_cannot_silently_lock_in_default_buckets(self):
        registry = MetricsRegistry()
        registry.observe("fw.admission_bytes", 10)
        with pytest.raises(MetricError):
            registry.histogram("fw.admission_bytes", buckets=(64, 1024))

    def test_value_default_for_missing(self):
        registry = MetricsRegistry()
        assert registry.value("nope", default=0) == 0
        registry.inc("yes", host="a")
        assert registry.value("yes", 0, host="other") == 0

    def test_collect_filters_by_prefix_and_labels(self):
        registry = MetricsRegistry()
        registry.inc("fw.delivered", host="a")
        registry.inc("fw.delivered", host="b")
        registry.inc("net.bytes", 10, host="a")
        rows = registry.collect("fw.", host="a")
        assert [(r["name"], r["value"]) for r in rows] == \
            [("fw.delivered", 1)]
        assert len(registry.collect("")) == 3

    def test_snapshot_is_json_serializable_and_sorted(self):
        registry = MetricsRegistry()
        registry.inc("z.last", host="b")
        registry.inc("a.first")
        registry.observe("m.hist", 0.5, host="a")
        registry.gauge("g.now").set(3.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        round_trip = json.loads(json.dumps(snapshot))
        assert round_trip["a.first"]["kind"] == "counter"
        assert round_trip["m.hist"]["samples"][0]["value"]["count"] == 1

    def test_snapshot_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.inc("x", host="b")
            registry.inc("x", host="a")
            registry.observe("y", 0.2)
            return json.dumps(registry.snapshot(), sort_keys=True)

        assert build() == build()

    def test_reset_clears_series_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        registry.reset()
        # Families stay registered (held references stay live); every
        # series is gone.  Dropping the family dict wholesale instead
        # orphaned held references: post-reset writes landed in a
        # detached object and silently vanished.
        snapshot = registry.snapshot()
        assert snapshot["x"]["samples"] == []
        assert registry.counter("x") is counter
        counter.inc(2)
        [sample] = registry.snapshot()["x"]["samples"]
        assert sample["value"] == 2

    def test_reset_clears_held_series_and_later_writes_reappear(self):
        registry = MetricsRegistry()
        peak = registry.gauge("g").labels(host="a")
        peak.set_max(7)
        count = registry.counter("c").labels(host="a")
        count.inc(5)
        waits = registry.histogram("h").labels(host="a")
        waits.observe(0.5)
        registry.reset()
        assert [s.value for s in (peak, count, waits)] == [None] * 3
        assert [registry.get(name).series() for name in "gch"] == [{}] * 3
        # Held series stay live, as held families do: the watermark and
        # the total start over instead of leaking into the next run.
        peak.set_max(3)
        count.inc()
        assert registry.gauge("g").labels(host="a") is peak
        snapshot = registry.snapshot()
        assert snapshot["g"]["samples"] == \
            [{"labels": {"host": "a"}, "value": 3}]
        assert snapshot["c"]["samples"] == \
            [{"labels": {"host": "a"}, "value": 1}]
        assert snapshot["h"]["samples"] == []


class TestSeries:
    def test_each_kind_hands_out_its_series_class(self):
        registry = MetricsRegistry()
        assert type(registry.counter("c").labels()) is CounterSeries
        assert type(registry.gauge("g").labels()) is GaugeSeries
        assert type(registry.histogram("h").labels()) is HistogramSeries

    def test_writes_through_a_series_are_the_family_s(self):
        registry = MetricsRegistry()
        total = registry.counter("c").labels(host="a")
        total.inc()
        total.inc(2.5)
        depth = registry.gauge("g").labels(host="a")
        depth.set(10)
        depth.add(-3)
        depth.set_max(5)
        depth.set_max(9)
        lat = registry.histogram("h", buckets=(1, 2)).labels(host="a")
        lat.observe(1.5)
        assert registry.value("c", host="a") == 3.5
        assert registry.value("g", host="a") == 9
        [sample] = registry.get("h").samples()
        assert sample["value"]["buckets"] == {"1": 0, "2": 1, "+inf": 0}
        with pytest.raises(ValueError, match="'c' cannot decrease"):
            total.inc(-1)

    def test_an_unwritten_or_reset_series_is_absent_everywhere(self):
        registry = MetricsRegistry()
        held = [registry.counter("c").labels(host="a"),
                registry.gauge("g").labels(host="a"),
                registry.histogram("h").labels(host="a")]

        def assert_absent():
            for name in "cgh":
                family = registry.get(name)
                assert family.samples() == [] and family.series() == {}
                assert family.value(host="a") is None
                assert registry.value(name, "gone", host="a") == "gone"
            assert registry.collect("") == []
            assert [f["samples"] for f in registry.snapshot().values()] \
                == [[], [], []]
            assert render_openmetrics(registry.snapshot()) == (
                "# TYPE c counter\n# TYPE g gauge\n"
                "# TYPE h histogram\n# EOF\n")

        assert_absent()
        held[0].inc()
        held[1].set(0)
        held[2].observe(0.5)
        assert len(registry.collect("", host="a")) == 3
        registry.reset()
        assert_absent()

    def test_non_str_label_values_land_where_label_key_says(self):
        class Loud(str):
            def __str__(self):
                return self.upper()

        registry = MetricsRegistry()
        counter = registry.counter("c")
        for value in (1, True, 1.0, Loud("x"), "x", 1):
            counter.labels(n=value).inc()
        assert counter.series() == {(("n", "1"),): 2, (("n", "True"),): 1,
                                    (("n", "1.0"),): 1, (("n", "X"),): 1,
                                    (("n", "x"),): 1}
        assert counter.labels(n=["a"]) is counter.labels(n="['a']")

    def test_a_held_series_follows_the_switch(self):
        registry = MetricsRegistry(enabled=False)
        series = registry.counter("c").labels(host="a")
        series.inc()
        assert series.value is None
        registry.enabled = True
        series.inc()
        registry.enabled = False
        series.inc()
        assert registry.value("c", host="a") == 1


def count_frames(write, *args, **kwargs):
    """Python frames (``sys.setprofile`` call events) one write spends
    in ``obs/metrics.py`` — a ``gc.callbacks`` hook that happens to run
    meanwhile is not the write's."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.endswith(
                os.path.join("repro", "obs", "metrics.py")):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        write(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return calls


class TestFrameBudget:
    """``layer.obs.metrics.calls_per_op`` of the repo benchmark, for
    one write, where CI runs it."""

    def test_a_held_write_is_one_frame(self):
        registry = MetricsRegistry()
        writes = [(registry.counter("c").labels(a="1", b="2").inc, 1),
                  (registry.gauge("g").labels(a="1", b="2").set, 1),
                  (registry.histogram("h").labels(a="1", b="2").observe,
                   0.5)]
        for write, value in writes:
            write(value)            # the histogram's first-write state
            assert count_frames(write, value) == 1

    def test_a_write_by_name_is_at_most_three(self):
        registry = MetricsRegistry()
        for write in (registry.inc, registry.observe):
            name = write.__name__
            for labels in ({"a": "1", "b": "2"}, {}):
                write(name, 1, **labels)    # family, series, memo entry
                assert count_frames(write, name, 1, **labels) <= 3


class TestDisabledRegistry:
    def test_recording_is_a_no_op(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("c", host="a")
        registry.observe("h", 0.5)
        assert registry.snapshot() == {}

    def test_direct_family_recording_is_also_no_op(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        counter.inc(100)
        assert counter.value() is None

    def test_disabled_registry_stores_nothing_through_any_route(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h")
        registry.inc("c", host="a")
        registry.observe("h", 0.5, host="a")
        counter.inc(host="a")
        gauge.set(1, host="a")
        gauge.add(1, host="a")
        gauge.set_max(1, host="a")
        histogram.observe(0.5, host="a")
        counter.labels(host="a").inc()
        gauge.labels(host="a").set(1)
        gauge.labels(host="a").add(1)
        gauge.labels(host="a").set_max(1)
        histogram.labels(host="a").observe(0.5)
        for family in (counter, gauge, histogram):
            assert family.series() == {} and family.samples() == []
            assert family.labels(host="a").value is None
        registry.inc("never.declared", host="a")
        assert registry.get("never.declared") is None
        registry.enabled = True
        assert registry.collect("") == []

    def test_reenabling_records_again(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("x")
        registry.enabled = True
        registry.inc("x")
        assert registry.value("x") == 1
