"""Metrics registry semantics: families, labels, histograms, no-op mode."""

import json
import math

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)


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

    def test_repeated_label_sets_are_memoised_per_keyword_order(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        for _ in range(3):
            counter.inc(a="1", b="2")
            registry.inc("c", b="2", a="1")
            counter.inc()
            counter.inc(a=1)
        assert counter.series() == {(("a", "1"), ("b", "2")): 6, (): 3,
                                    (("a", "1"),): 3}
        assert counter._key_memo == {
            (("a", "1"), ("b", "2")): (("a", "1"), ("b", "2")),
            (("b", "2"), ("a", "1")): (("a", "1"), ("b", "2"))}

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
        registry.set_gauge("queue", 5, host="a")
        registry.set_gauge("queue", 2, host="a")
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
            registry.set_gauge("c", 1)
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
        registry.set_gauge("g.now", 3.5)
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

    def test_reset_drops_the_key_memo_with_the_series(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set_max(7, host="a")
        registry.inc("c", host="a")
        registry.observe("h", 0.5, host="a")
        families = [registry.get(name) for name in ("g", "c", "h")]
        assert all(family._key_memo for family in families)
        registry.reset()
        assert not any(family._key_memo or family.series()
                       for family in families)
        gauge.set_max(3, host="a")
        assert registry.snapshot()["g"]["samples"] == \
            [{"labels": {"host": "a"}, "value": 3}]


class TestDisabledRegistry:
    def test_recording_is_a_no_op(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("c", host="a")
        registry.set_gauge("g", 1)
        registry.observe("h", 0.5)
        assert registry.snapshot() == {}

    def test_direct_family_recording_is_also_no_op(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        counter.inc(100)
        assert counter.value() is None

    def test_disabled_recorders_leave_every_memo_empty(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h")
        registry.inc("c", host="a")
        registry.set_gauge("g", 1, host="a")
        registry.observe("h", 0.5, host="a")
        counter.inc(host="a")
        gauge.set(1, host="a")
        gauge.add(1, host="a")
        gauge.set_max(1, host="a")
        histogram.observe(0.5, host="a")
        for family in (counter, gauge, histogram):
            assert family.series() == {} and family._key_memo == {}
        registry.inc("never.declared", host="a")
        assert registry.get("never.declared") is None

    def test_reenabling_records_again(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("x")
        registry.enabled = True
        registry.inc("x")
        assert registry.value("x") == 1
