"""Process-wide metrics registry: Counter / Gauge / Histogram with labels.

One :class:`MetricsRegistry` is the single backing store for every stat the
system exposes: per-endpoint request/latency/guard counters (one count per
served request, recorded by ``ServingApp``), gateway loads, evictions and
promotions, MicroBatcher flush sizes and queue depth, shadow/canary arm
deltas, engine cache hits and span timings, queue worker
lease/retry/heartbeat counts.  The stat structures (``EndpointStats``,
``BatchStats``, ``ShadowStats``, ``CacheStats``) are thin views over
registry series, so their JSON documents and ``snapshot()`` /
:mod:`repro.obs.prom` show the same numbers.

Design points:

* **Instantiable.** :data:`REGISTRY` is the process-wide default (engine,
  queue, spans), but components that need isolated counting — every
  ``ServingApp`` owns one registry shared by its endpoint stats, gateway,
  batchers and routes — create their own.  Two apps in one test process
  must not see each other's requests.
* **Lock-guarded.** One lock per metric guards both the series map and
  every series mutation; instruments are safe to share across server
  threads, queue-worker threads and asyncio callbacks.
* **Bounded cardinality.** A metric accepts at most ``max_series`` distinct
  label combinations; beyond that, updates collapse into a single
  ``"_overflow"`` series so a fuzzing client cannot grow ``/metrics``
  without bound (label values are caller-controlled on the HTTP layer).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "REGISTRY",
]

#: Default latency-style histogram buckets (seconds), prometheus-client's
#: defaults trimmed to the range this system actually serves in.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Label values of the single series a metric collapses into once its
#: cardinality cap is hit.
OVERFLOW_LABEL = "_overflow"


class _Series:
    """One labeled time series of a metric (shares the metric's lock)."""

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock


class CounterSeries(_Series):
    """Monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class GaugeSeries(_Series):
    """A value that can go up and down."""

    __slots__ = ("_value",)

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class HistogramSeries(_Series):
    """Cumulative-bucket histogram with fixed boundaries."""

    __slots__ = ("buckets", "_counts", "count", "sum")

    def __init__(self, lock: threading.Lock, buckets: Tuple[float, ...]) -> None:
        super().__init__(lock)
        self.buckets = buckets
        #: Observations per bucket: ``_counts[i]`` holds the values in
        #: ``(buckets[i-1], buckets[i]]``; the last slot holds the rest.
        self._counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        # The first bound that covers the value; NaN is covered by none.
        index = bisect_left(self.buckets, value) if value == value else len(self.buckets)
        with self._lock:
            self.count += 1
            self.sum += value
            self._counts[index] += 1

    def bucket_counts(self) -> List[int]:
        """Cumulative counts per bucket boundary (excluding ``+Inf``): the
        ``le`` counts Prometheus expects."""
        with self._lock:
            return list(accumulate(self._counts[:-1]))


class Metric:
    """One named metric: a family of series keyed by label values."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        max_series: int = 512,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(sorted(buckets))
        self.max_series = int(max_series)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], _Series] = {}

    # -- series access --------------------------------------------------
    def _make_series(self) -> _Series:
        if self.kind == "counter":
            return CounterSeries(self._lock)
        if self.kind == "gauge":
            return GaugeSeries(self._lock)
        return HistogramSeries(self._lock, self.buckets)

    def labels(self, *values: Any, **kv: Any) -> Any:
        """The series for one label-value combination (created on first use)."""
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(str(kv[name]) for name in self.labelnames)
            except KeyError as error:
                raise ValueError(
                    f"metric '{self.name}' expects labels {self.labelnames}"
                ) from error
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric '{self.name}' expects {len(self.labelnames)} label "
                f"value(s) {self.labelnames}, got {len(values)}"
            )
        with self._lock:
            series = self._series.get(values)
            if series is None:
                if len(self._series) >= self.max_series:
                    values = (OVERFLOW_LABEL,) * len(self.labelnames)
                    series = self._series.get(values)
                    if series is None:
                        series = self._series[values] = self._make_series()
                else:
                    series = self._series[values] = self._make_series()
            return series

    # -- unlabeled convenience ------------------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    # -- introspection --------------------------------------------------
    def collect(self) -> List[Tuple[Dict[str, str], _Series]]:
        """``(labels dict, series)`` pairs, stable order (sorted by labels)."""
        with self._lock:
            items = sorted(self._series.items())
        return [
            (dict(zip(self.labelnames, values)), series)
            for values, series in items
        ]

    def snapshot(self) -> Dict[str, Any]:
        series_docs: List[Dict[str, Any]] = []
        for labels, series in self.collect():
            if isinstance(series, HistogramSeries):
                value: Any = {
                    "count": series.count,
                    "sum": series.sum,
                    "buckets": {
                        str(bound): count
                        for bound, count in zip(series.buckets, series.bucket_counts())
                    },
                }
            else:
                value = series.value
            series_docs.append({"labels": labels, "value": value})
        return {
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": series_docs,
        }


# Public aliases so call sites read naturally (`registry.counter(...)`
# returns a `Counter`).
Counter = Metric
Gauge = Metric
Histogram = Metric


class MetricsRegistry:
    """Get-or-create home of every metric in one scope (process or app).

    Re-registering a name returns the existing metric; re-registering it
    with a different type or label set raises — two call sites disagreeing
    about a metric's schema is always a bug.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        max_series: int = 512,
    ) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if metric.kind != kind or metric.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric '{name}' already registered as {metric.kind}"
                        f"{metric.labelnames}, cannot re-register as {kind}"
                        f"{tuple(labelnames)}"
                    )
                return metric
            metric = Metric(
                name, kind, help=help, labelnames=labelnames,
                buckets=buckets, max_series=max_series,
            )
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = (),
        max_series: int = 512,
    ) -> Metric:
        return self._get_or_create(name, "counter", help, labelnames,
                                   max_series=max_series)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = (),
        max_series: int = 512,
    ) -> Metric:
        return self._get_or_create(name, "gauge", help, labelnames,
                                   max_series=max_series)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        max_series: int = 512,
    ) -> Metric:
        return self._get_or_create(name, "histogram", help, labelnames,
                                   buckets=buckets, max_series=max_series)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict dump of every metric (JSON-serialisable)."""
        return {metric.name: metric.snapshot() for metric in self.collect()}


#: The process-wide default registry: engine, queue and span metrics report
#: here; serving apps own their own registry and merge it for exposition.
REGISTRY = MetricsRegistry()


def registries_for_exposition(*extra: Optional[MetricsRegistry]) -> List[MetricsRegistry]:
    """The default registry plus any extras, deduplicated, order-stable."""
    result: List[MetricsRegistry] = []
    for registry in (*extra, REGISTRY):
        if registry is not None and registry not in result:
            result.append(registry)
    return result
