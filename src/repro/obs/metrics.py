"""Thread-safe metric primitives and the process-wide registry.

The paper's evaluation is a counting exercise (Tables 5-6 and Figures
8-10 all count events inside the compiler); this module gives every
layer of the reproduction one place to put those counts.  Three metric
kinds, deliberately Prometheus-shaped so :mod:`repro.obs.promtext` can
export them verbatim:

* :class:`Counter` — monotone event count (alias queries, cache hits,
  union-find merges).  ``inc()`` is thread-safe; hot paths that are
  single-threaded by construction may mutate ``.value`` directly.
* :class:`Gauge` — last-written value (partition class counts, group
  counts).
* :class:`Histogram` — fixed-bucket distribution (Steensgaard group
  sizes, span durations).

Metrics live in a :class:`MetricsRegistry`, which holds exactly one
metric per ``(name, labels)`` series: :meth:`MetricsRegistry.counter`
(and ``gauge``/``histogram``) get-or-create it.  The registry therefore
grows with the series in use, never with the owners that record into
them; an owner that needs its own count back (each
:class:`~repro.analysis.alias_base.AliasAnalysis` reports its query
cache) keeps that count itself and adds to the shared series too.

The registry also owns metric naming, so everything it holds renders
as valid Prometheus text.  The first registration of a name checks it
against ``[a-z][a-z0-9_]*(\\.[a-z0-9_]+)*`` and checks that its exported
name (:func:`metric_name`) and, for a histogram, its
``_bucket``/``_sum``/``_count`` sample names are not written by any
other metric; a new series checks its label names (``le`` is reserved
on histograms); a histogram family keeps one tuple of distinct finite
buckets.  Each rule raises ``ValueError`` and leaves the registry as it
was; the get-or-create path for an existing series does no extra work.

Everything here is dependency-free and importable from any layer.
"""

import math
import re
import threading
from typing import Dict, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*(\.[a-z0-9_]+)*\Z")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
_EXPORT_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: The sample names a histogram writes besides its family name.
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def metric_name(name: str) -> str:
    """``alias.cache.hits`` -> ``repro_alias_cache_hits``."""
    sanitised = _EXPORT_RE.sub("_", name)
    if not sanitised.startswith("repro_"):
        sanitised = "repro_" + sanitised
    return sanitised


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotone counter.  ``inc`` locks; ``.value`` is for hot paths."""

    __slots__ = ("name", "labels", "value", "_lock")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        """Add *n*; a negative or NaN *n* raises ``ValueError``."""
        if not n >= 0:
            raise ValueError("counter {} cannot decrease by {!r}".format(
                self.name, n))
        with self._lock:
            self.value += n

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def __repr__(self) -> str:
        return "<Counter {}{} {}>".format(self.name, dict(self.labels), self.value)


class Gauge:
    """Last-write-wins value."""

    __slots__ = ("name", "labels", "value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self.value += n

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0

    def __repr__(self) -> str:
        return "<Gauge {}{} {}>".format(self.name, dict(self.labels), self.value)


#: Default histogram bucket upper bounds (events are small-integer sized
#: things like group sizes; durations are recorded in milliseconds).
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max."""

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count",
                 "sum", "min", "max", "_lock")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = (),
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    def reset(self) -> None:
        with self._lock:
            self.bucket_counts = [0] * (len(self.buckets) + 1)
            self.count = 0
            self.sum = 0.0
            self.min = None
            self.max = None

    def __repr__(self) -> str:
        return "<Histogram {}{} n={}>".format(
            self.name, dict(self.labels), self.count)


class MetricsRegistry:
    """Process-wide metric store: one metric per ``(name, labels)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> kind; name -> {labelkey -> metric}
        self._kinds: Dict[str, str] = {}
        self._series: Dict[str, Dict[LabelKey, object]] = {}
        # histogram name -> its one sorted bucket tuple
        self._buckets: Dict[str, Tuple[float, ...]] = {}
        # exported sample name -> the metric that writes it
        self._exported: Dict[str, str] = {}

    # -- registration ---------------------------------------------------

    def _family(self, name: str, kind: str,
                buckets: Tuple[float, ...]) -> Dict[LabelKey, object]:
        known = self._kinds.get(name)
        if known is None:
            self._register(name, kind, buckets)
        elif known != kind:
            raise ValueError(
                "metric {!r} already registered as {} (got {})".format(
                    name, known, kind))
        return self._series[name]

    def _register(self, name: str, kind: str,
                  buckets: Tuple[float, ...]) -> None:
        """First registration of *name*: the naming rules, then the entry."""
        if not _NAME_RE.match(name):
            raise ValueError("bad metric name {!r}".format(name))
        suffixes = ("",) + (HISTOGRAM_SUFFIXES if kind == "histogram" else ())
        samples = [metric_name(name) + suffix for suffix in suffixes]
        for sample in samples:
            if sample in self._exported:
                raise ValueError(
                    "metric {!r} would export {} already written by "
                    "{!r}".format(name, sample, self._exported[sample]))
        if kind == "histogram":
            bounds = tuple(sorted(buckets))
            if len(set(bounds)) != len(bounds) or \
                    not all(map(math.isfinite, bounds)):
                raise ValueError(
                    "histogram {!r} needs distinct finite buckets, got "
                    "{!r}".format(name, buckets))
            self._buckets[name] = bounds
        self._exported.update(dict.fromkeys(samples, name))
        self._kinds[name] = kind
        self._series[name] = {}

    def _metric(self, name: str, kind: str, labels: Dict[str, object],
                buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        """Get-or-create the one metric of ``(name, labels)``."""
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(name)
            metric = series.get(key) if series else None
            if metric is None:  # a new series: check before registering
                for label, _ in key:
                    if not _LABEL_NAME_RE.match(label) or (
                            label == "le" and kind == "histogram"):
                        raise ValueError("metric {!r}: bad label name "
                                         "{!r}".format(name, label))
            series = self._family(name, kind, buckets)
            if metric is not None:
                return metric
            if kind == "counter":
                metric = Counter(name, key)
            elif kind == "gauge":
                metric = Gauge(name, key)
            elif tuple(sorted(buckets)) != self._buckets[name]:
                raise ValueError(
                    "histogram {!r} has buckets {!r}, got {!r}".format(
                        name, self._buckets[name], buckets))
            else:
                metric = Histogram(name, key, buckets)
            series[key] = metric
            return metric

    def counter(self, name: str, **labels) -> Counter:
        """Get-or-create the counter for ``(name, labels)``."""
        return self._metric(name, "counter", labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._metric(name, "gauge", labels)

    def histogram(self, name: str, buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return self._metric(name, "histogram", labels, buckets=buckets)

    # -- reading --------------------------------------------------------

    def snapshot(self) -> List[dict]:
        """Every series as one plain dict, sorted by name and labels."""
        out: List[dict] = []
        with self._lock:
            for name in sorted(self._series):
                kind = self._kinds[name]
                for key in sorted(self._series[name]):
                    metric = self._series[name][key]
                    entry = {"kind": kind, "name": name, "labels": dict(key)}
                    if kind == "histogram":
                        entry.update(_histogram_entry(metric))
                    else:
                        entry["value"] = metric.value
                    out.append(entry)
        return out

    def reset(self) -> None:
        """Zero every metric in place (owners keep their references)."""
        with self._lock:
            for series in self._series.values():
                for metric in series.values():
                    metric.reset()

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)


def _histogram_entry(histogram: Histogram) -> dict:
    # Under the lock: observe() bumps count before its bucket.
    with histogram._lock:
        return {
            "buckets": list(histogram.buckets),
            "bucket_counts": list(histogram.bucket_counts),
            "count": histogram.count,
            "sum": histogram.sum,
            "min": histogram.min,
            "max": histogram.max,
        }


#: The process-wide registry every layer records into.
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return REGISTRY
