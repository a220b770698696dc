"""The metrics registry before series were objects: the oracle every
route into ``repro.obs.metrics`` is tested against.

One dictionary per family, keyed by the canonical label key, and that
key recomputed on *every* call — no remembered label sets, no series
objects, nothing held between calls.  Only what a write / snapshot
sequence exercises is replicated; ``collect``, ``value`` and help
strings are not.
"""

from bisect import bisect_left

from repro.obs.metrics import DEFAULT_BUCKETS, MetricError


def canonical(labels):
    """Order-insensitive, stringified form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class ReferenceRegistry:
    """``write(op, name, value, labels)`` for ``op`` in :data:`OPS`,
    plus ``counter`` / ``gauge`` / ``histogram`` (declare, or raise on
    a kind conflict) and ``snapshot`` with the product's meaning."""

    #: write op → the family kind it needs.
    OPS = {"inc": "counter", "set": "gauge", "add": "gauge",
           "set_max": "gauge", "observe": "histogram"}

    def __init__(self):
        self._families = {}     # name → {"kind", "buckets", "series"}

    def _family(self, kind, name, buckets=DEFAULT_BUCKETS):
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = {
                "kind": kind, "series": {},
                "buckets": tuple(sorted(buckets))}
        elif family["kind"] != kind:
            raise MetricError(
                f"metric {name!r} is a {family['kind']}, not a {kind}")
        return family

    def counter(self, name):
        self._family("counter", name)

    def gauge(self, name):
        self._family("gauge", name)

    def histogram(self, name, buckets=DEFAULT_BUCKETS):
        self._family("histogram", name, buckets)

    def write(self, op, name, value, labels):
        family = self._family(self.OPS[op], name)
        series = family["series"]
        key = canonical(labels)
        if op == "inc":
            if value < 0:
                raise ValueError(f"counter {name!r} cannot decrease")
            series[key] = series.get(key, 0) + value
        elif op == "set":
            series[key] = value
        elif op == "add":
            series[key] = series.get(key, 0) + value
        elif op == "set_max":
            if key not in series or value > series[key]:
                series[key] = value
        else:
            bounds = family["buckets"]
            state = series.setdefault(key, {
                "count": 0, "sum": 0.0, "min": None, "max": None,
                "per_bucket": [0] * (len(bounds) + 1)})
            state["count"] += 1
            state["sum"] += value
            if state["min"] is None or value < state["min"]:
                state["min"] = value
            if state["max"] is None or value > state["max"]:
                state["max"] = value
            state["per_bucket"][bisect_left(bounds, value)] += 1

    def snapshot(self):
        out = {}
        for name in sorted(self._families):
            family = self._families[name]
            samples = []
            for key, raw in sorted(family["series"].items()):
                if family["kind"] == "histogram":
                    buckets = {f"{bound:g}": n for bound, n in zip(
                        family["buckets"], raw["per_bucket"])}
                    buckets["+inf"] = raw["per_bucket"][-1]
                    raw = {"count": raw["count"], "sum": raw["sum"],
                           "min": raw["min"], "max": raw["max"],
                           "buckets": buckets}
                samples.append({"labels": dict(key), "value": raw})
            out[name] = {"kind": family["kind"], "help": "",
                         "samples": samples}
        return out
