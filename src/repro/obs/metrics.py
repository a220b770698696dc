"""The metrics registry: counters, gauges and histograms with labels.

The registry is the system's numeric memory: every layer of the runtime
(kernel, network, firewalls, VMs, agents) increments named time series
here instead of keeping private ad-hoc tallies that vanish with their
owner.  The design goals, in order:

1. **Zero dependencies** — plain dictionaries, JSON-able snapshots.
2. **Cheap when disabled** — every recording method checks one boolean
   and returns; a disabled registry stores *nothing* and never allocates
   per-call, so instrumentation can stay unconditionally wired into hot
   paths.
3. **Deterministic** — no wall-clock anywhere; ordering of snapshot
   output is sorted, so two identical simulation runs produce identical
   snapshots.

Naming follows the ``subsystem.metric`` convention
(``fw.messages_queued``, ``net.bytes_on_wire``); labels are free-form
keyword arguments (``host=...``, ``agent=...``).  Label values are
stringified, and label *order* never matters — ``inc("x", a="1", b="2")``
and ``inc("x", b="2", a="1")`` hit the same series.

A series is an object: ``family.labels(**labels)`` hands out the one
:class:`CounterSeries` / :class:`GaugeSeries` / :class:`HistogramSeries`
of that label set, and every write — the registry's recorders and the
family methods included — is ``labels(...)`` plus a method of that
object, which holds its own value.  An owner whose labels never change
(the kernel, a link, a firewall) resolves its series on first write and
keeps it; a write through a held series is one attribute update.
``docs/observability.md`` ("What a sample costs") has the numbers.

A counter that only mirrors a tally its owner keeps anyway (a
firewall's ``DeliveryStats``, a link's ``LinkStats``) is not written
beside it: the owner registers a collector
(:attr:`MetricsRegistry.collectors`), and a read of the registry that
needs those families first adds the tallies' growth to their series —
the custom-collector pattern of the Prometheus clients.  Such a
:class:`CollectedCounter` reports exactly what a written one would.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Histogram bucket upper bounds (seconds-oriented); +inf is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, order-insensitive form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricError(ValueError):
    """A metric was redeclared with a conflicting kind or buckets."""


def estimate_quantile(sample: dict, q: float) -> Optional[float]:
    """Estimate the ``q``-quantile of a histogram *sample* dict (the
    ``{"count", "sum", "min", "max", "buckets"}`` shape produced by
    :meth:`Histogram._sample_value`).

    Classic bucket-walk with linear interpolation inside the target
    bucket, clamped to the observed ``[min, max]`` so tiny populations
    do not extrapolate past real data.  Returns None for an empty
    sample.  Deterministic: pure arithmetic over the sample.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = sample.get("count", 0)
    if not count:
        return None
    bounds: List[Tuple[float, int]] = [
        (float(key), n) for key, n in sample["buckets"].items()
        if key != "+inf"]
    bounds.sort()
    rank = q * count
    lower = 0.0
    cumulative = 0
    minimum = sample.get("min")
    maximum = sample.get("max")
    for bound, n in bounds:
        if cumulative + n >= rank and n > 0:
            fraction = (rank - cumulative) / n
            estimate = lower + (bound - lower) * fraction
            break
        cumulative += n
        lower = bound
    else:
        # Target rank lands in the +inf bucket: the best deterministic
        # point estimate is the observed maximum.
        estimate = maximum if maximum is not None else lower
    if minimum is not None:
        estimate = max(estimate, minimum)
    if maximum is not None:
        estimate = min(estimate, maximum)
    return estimate


def summarize_sample(sample: dict) -> dict:
    """p50/p95/p99 + count/sum/min/max summary of a histogram sample."""
    return {
        "count": sample.get("count", 0),
        "sum": sample.get("sum", 0.0),
        "min": sample.get("min"),
        "max": sample.get("max"),
        "p50": estimate_quantile(sample, 0.50),
        "p95": estimate_quantile(sample, 0.95),
        "p99": estimate_quantile(sample, 0.99),
    }


class _Switch:
    """A registry's on/off flag, shared with every family and series it
    hands out.

    They read the switch, never the registry: the registry holds them,
    so a family or series holding the registry back would make every
    registry a reference cycle only the cycle collector could free.
    """

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool):
        self.enabled = enabled


class _Series:
    """One label set of one family: the value, and the writes to it.

    ``value`` is None until the first write and again after
    :meth:`MetricsRegistry.reset`; a series without a value appears in
    no sample list, so resolving one (and holding it) shows nothing.
    Every write checks the registry's switch first.  A series keeps the
    family's name, not the family (which holds it).
    """

    __slots__ = ("switch", "name", "value")

    def __init__(self, family: "Metric"):
        self.switch = family.switch
        self.name = family.name
        self.value = None

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} "
                f"value={self.value!r}>")


class CounterSeries(_Series):
    """Monotonically increasing value (int or float)."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        if not self.switch.enabled:
            return
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease")
        value = self.value
        self.value = (0 if value is None else value) + amount


class GaugeSeries(_Series):
    """A value that can go up and down (queue depths, temperatures)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        if self.switch.enabled:
            self.value = value

    def add(self, delta: float) -> None:
        if self.switch.enabled:
            value = self.value
            self.value = (0 if value is None else value) + delta

    def set_max(self, value: float) -> None:
        """Raise the series to ``value`` if higher (high-watermark)."""
        if self.switch.enabled:
            current = self.value
            if current is None or value > current:
                self.value = value


class _HistogramState:
    """A histogram series' value, created by its first observation: the
    extremes start at that value, so no later one tests for None."""

    __slots__ = ("count", "total", "minimum", "maximum", "bucket_counts")

    def __init__(self, n_buckets: int, first: float):
        self.count = 0
        self.total = 0.0
        self.minimum = self.maximum = first
        self.bucket_counts = [0] * (n_buckets + 1)  # last = +inf


class HistogramSeries(_Series):
    """Distribution of observed values over the family's buckets."""

    __slots__ = ("buckets",)

    def __init__(self, family: "Histogram"):
        super().__init__(family)
        self.buckets = family.buckets

    def observe(self, value: float) -> None:
        if not self.switch.enabled:
            return
        buckets = self.buckets
        state = self.value
        if state is None:
            state = self.value = _HistogramState(len(buckets), value)
        state.count += 1
        state.total += value
        # minimum <= maximum: a new minimum is never a new maximum.
        if value < state.minimum:
            state.minimum = value
        elif value > state.maximum:
            state.maximum = value
        # The first bound with ``value <= bound``; past the last one is
        # the +inf slot.
        state.bucket_counts[bisect_left(buckets, value)] += 1


class Metric:
    """One named family of series, distinguished by label sets."""

    kind = "metric"
    _series_class = _Series

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str = ""):
        self.switch = registry._switch
        self.name = name
        self.help = help
        #: Every series handed out, written or not, by canonical key.
        self._series: Dict[LabelKey, _Series] = {}
        #: Keyword items as a call site passes them -> their series, so
        #: a repeated label set is resolved by one look-up.
        self._as_passed: Dict[tuple, _Series] = {}

    def labels(self, **labels):
        """The one series of this label set, created on first request.

        Label sets whose values are all exactly ``str`` are remembered
        per keyword order, and their canonical key is their sorted
        items (what :func:`_label_key` makes of them); anything else is
        canonicalised by :func:`_label_key` on every call — ``1``,
        ``True`` and ``1.0`` are one dict key but stringify to three
        series, and a ``str`` subclass may override ``__str__``.

        Hold the result only where the labels are fixed for the
        holder's lifetime; it stays live across
        :meth:`MetricsRegistry.reset`.
        """
        for value in labels.values():
            if type(value) is not str:
                items = None
                key = _label_key(labels)
                break
        else:
            items = tuple(labels.items())
            series = self._as_passed.get(items)
            if series is not None:
                return series
            key = tuple(sorted(items))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = self._series_class(self)
        if items is not None:
            self._as_passed[items] = series
        return series

    # -- introspection -------------------------------------------------------

    def series(self) -> Dict[LabelKey, object]:
        """Raw value of every written series, by canonical key."""
        return {key: series.value for key, series in self._series.items()
                if series.value is not None}

    def value(self, **labels):
        """The series value for exactly these labels (None if absent)."""
        series = self._series.get(_label_key(labels))
        return None if series is None else series.value

    def samples(self) -> List[dict]:
        """Sorted, JSON-able ``{"labels": ..., "value": ...}`` samples."""
        return [{"labels": dict(key), "value": self._sample_value(raw)}
                for key, raw in sorted(self.series().items())]

    def _sample_value(self, raw):
        return raw

    def describe(self) -> dict:
        return {"kind": self.kind, "help": self.help,
                "samples": self.samples()}

    def clear(self) -> None:
        """Forget every value (counts, watermarks, histograms) while
        the family stays registered and its series objects stay the
        ones :meth:`labels` hands out — see
        :meth:`MetricsRegistry.reset`."""
        for series in self._series.values():
            series.value = None


class Counter(Metric):
    """Monotonically increasing value (int or float)."""

    kind = "counter"
    _series_class = CounterSeries

    def inc(self, amount: float = 1, **labels) -> None:
        if self.switch.enabled:
            self.labels(**labels).inc(amount)


class Gauge(Metric):
    """A value that can go up and down (queue depths, temperatures)."""

    kind = "gauge"
    _series_class = GaugeSeries

    def set(self, value: float, **labels) -> None:
        if self.switch.enabled:
            self.labels(**labels).set(value)

    def add(self, delta: float, **labels) -> None:
        if self.switch.enabled:
            self.labels(**labels).add(delta)

    def set_max(self, value: float, **labels) -> None:
        """Raise the series to ``value`` if higher (high-watermark)."""
        if self.switch.enabled:
            self.labels(**labels).set_max(value)


class CollectedCounter(Counter):
    """A counter family its owners' tallies feed (see
    :attr:`MetricsRegistry.collectors`): the registry adds their growth
    to its series when it is read, and nothing writes it."""

    def labels(self, **labels):
        raise MetricError(
            f"metric {self.name!r} is read from tallies, never written")


class Histogram(Metric):
    """Distribution of observed values over fixed buckets."""

    kind = "histogram"
    _series_class = HistogramSeries

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(registry, name, help)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def observe(self, value: float, **labels) -> None:
        if self.switch.enabled:
            self.labels(**labels).observe(value)

    def _sample_value(self, raw: _HistogramState) -> dict:
        buckets = {f"{bound:g}": count for bound, count
                   in zip(self.buckets, raw.bucket_counts)}
        buckets["+inf"] = raw.bucket_counts[-1]
        return {"count": raw.count, "sum": raw.total,
                "min": raw.minimum, "max": raw.maximum,
                "buckets": buckets}


class MetricsRegistry:
    """All metric families of one deployment.

    Families are created lazily (``counter()``/``gauge()``/
    ``histogram()`` are get-or-create) and the convenience recorders
    (:meth:`inc`, :meth:`observe`) create the family of the right kind
    on first use, so call sites need no setup.
    """

    def __init__(self, enabled: bool = True):
        self._switch = _Switch(enabled)
        self._families: Dict[str, Metric] = {}
        #: ``(families, read)`` per owner whose tallies feed the counter
        #: ``families``: ``read()`` maps ``(family, label key)`` to a
        #: tally that never falls.  An owner appends its pair before it
        #: tallies anything (which runs no Python frame), and hands over
        #: a reader of its tallies, never itself: the registry keeps it.
        self.collectors: List[Tuple[Tuple[str, ...],
                                    Callable[[], Dict[tuple, float]]]] = []
        #: The tallies as of the latest :meth:`_read_tallies`: what the
        #: next read adds is their growth since.
        self._base: Dict[tuple, float] = {}

    @property
    def enabled(self) -> bool:
        """The switch every family and series of this registry reads."""
        return self._switch.enabled

    @enabled.setter
    def enabled(self, enabled: bool) -> None:
        # Growth while off is never counted: it is collected before the
        # switch goes off and skipped when it comes on.
        self._read_tallies()
        self._switch.enabled = enabled

    # -- collected counters --------------------------------------------------

    def _read_tallies(self) -> None:
        """Take the owners' tallies as the new base; while enabled,
        first add each one's growth since the last base to its
        :class:`CollectedCounter` series, as a write beside the tally
        would have.  (While disabled the growth is skipped.)"""
        tallies: Dict[tuple, float] = {}
        for _families, read in self.collectors:
            for key, tally in read().items():
                tallies[key] = tallies.get(key, 0) + tally
        base, self._base = self._base, tallies
        if not self._switch.enabled:
            return
        for (name, labels), tally in tallies.items():
            grown = tally - base.get((name, labels), 0)
            if grown:
                # A written family of this name raises: it is one or
                # the other, never both.
                family = self._family(CollectedCounter, name)
                series = Metric.labels(family, **dict(labels))
                series.value = (series.value or 0) + grown

    # -- family construction -------------------------------------------------

    def _family(self, cls, name: str, help: str = "", **kwargs) -> Metric:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = cls(self, name, help, **kwargs)
        elif not isinstance(family, cls):
            raise MetricError(
                f"metric {name!r} is a {family.kind}, not a {cls.kind}")
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        """Get or create; ``buckets=None`` means :data:`DEFAULT_BUCKETS`
        for a new family and "whatever it has" for an existing one.
        Naming bounds an existing histogram does not have is a
        :class:`MetricError`, like a kind conflict."""
        wanted = None if buckets is None else tuple(sorted(buckets))
        family = self._family(
            Histogram, name, help,
            buckets=DEFAULT_BUCKETS if wanted is None else wanted)
        if wanted is not None and wanted != family.buckets:
            raise MetricError(
                f"histogram {name!r} has buckets {family.buckets}, "
                f"not {wanted}")
        return family

    # -- convenience recorders ----------------------------------------------
    #
    # ``labels(...)`` plus the series' own write, behind a family
    # look-up: an existing family of the right kind is used directly;
    # only a first use or a kind conflict goes through the constructors
    # above.  A disabled registry does not even create the family.

    def inc(self, name: str, amount: float = 1, **labels) -> None:
        if not self._switch.enabled:
            return
        family = self._families.get(name)
        if type(family) is not Counter:
            family = self.counter(name)
        family.labels(**labels).inc(amount)

    def observe(self, name: str, value: float, **labels) -> None:
        if not self._switch.enabled:
            return
        family = self._families.get(name)
        if type(family) is not Histogram:
            family = self.histogram(name)
        family.labels(**labels).observe(value)

    # -- reading -------------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        for families, _read in self.collectors:
            if name in families:
                self._read_tallies()
                break
        return self._families.get(name)

    def value(self, name: str, default=None, **labels):
        """The current value of one series (``default`` if absent)."""
        family = self.get(name)
        if family is None:
            return default
        found = family.value(**labels)
        return default if found is None else found

    def collect(self, prefix: str = "", **label_filter) -> List[dict]:
        """Flat sample list, filtered by name prefix and label equality.

        Each entry is ``{"name", "kind", "labels", "value"}``; used by
        the firewall admin agent to answer per-agent ``stat`` queries.
        """
        self._read_tallies()
        wanted = {k: str(v) for k, v in label_filter.items()}
        out: List[dict] = []
        for name in sorted(self._families):
            if not name.startswith(prefix):
                continue
            family = self._families[name]
            for sample in family.samples():
                labels = sample["labels"]
                if all(labels.get(k) == v for k, v in wanted.items()):
                    out.append({"name": name, "kind": family.kind,
                                "labels": labels,
                                "value": sample["value"]})
        return out

    def snapshot(self) -> Dict[str, dict]:
        """JSON-able dump of every family (sorted, deterministic)."""
        self._read_tallies()
        return {name: self._families[name].describe()
                for name in sorted(self._families)}

    def reset(self) -> None:
        """The explicit **per-run reset**: forget every value in place.

        Families stay registered and — crucially — any family or series
        object a call site still holds (``gauge = metrics.gauge(
        "fw.queue_peak_depth")``, ``series = gauge.labels(host=...)``)
        stays *live*: it vanishes from every sample list now and
        reappears with its next write.  The registry used to drop the
        family dict wholesale, which orphaned such held references:
        their writes after the reset landed in a detached object and
        silently vanished from snapshots, while cumulative state
        recorded before the reset (peak watermarks via
        :meth:`GaugeSeries.set_max`, counter totals) could leak into
        the next in-process run whenever the reset was skipped.
        Back-to-back scenario cells in one process (the suite matrix
        runner) must either construct a fresh registry or call this;
        see ``docs/experiments.md``.  A collected counter counts on from
        the owners' tallies as they stand at the reset (while enabled;
        enabling again takes them as they stand then).
        """
        self._read_tallies()
        for family in self._families.values():
            family.clear()

    def __repr__(self) -> str:
        state = "enabled" if self._switch.enabled else "disabled"
        return (f"<MetricsRegistry {state} "
                f"families={len(self._families)}>")
