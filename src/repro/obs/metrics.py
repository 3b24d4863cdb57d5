"""Process-wide metrics: counters, gauges, and histograms with labels.

The registry is the reproduction's answer to the paper's Section 4
methodology — every claim there is a *work count* (MD subtuples touched per
storage structure, pages fetched per navigation, objects opened per
addressing mode).  Storage, index, and query components report into one
shared :class:`MetricsRegistry` so that any operation can be bracketed by
``totals()`` / ``delta()`` and decomposed into engine work.

Design constraints:

* **near-zero overhead when disabled** — the registry starts disabled and
  every instrumentation site guards on the plain attribute
  ``METRICS.enabled`` before doing *any* work (no allocation, no dict
  lookup, no function call on the hot path when off);
* **labels** — counters/gauges/histograms can be split by label values
  (``METRICS.inc("index.probes", index="FN")``); unlabeled and labeled
  series of the same name coexist;
* **snapshot/delta** — ``snapshot()`` captures everything,
  ``totals()``/``delta()`` give the flat counter view used by
  ``EXPLAIN ANALYZE`` and the benchmarks.

See ``docs/OBSERVABILITY.md`` for the metric catalog (what paper quantity
each counter reproduces).
"""

from __future__ import annotations

import math
import os
import threading
from typing import Any, Callable, Iterable, Optional

LabelKey = tuple  # tuple[tuple[str, str], ...] — sorted (name, value) pairs


def env_number(name: str, default: Any, parse: Callable[[str], Any] = float) -> Any:
    """The ``REPRO_*`` knob *name* parsed by *parse*, or *default* when it
    is unset, blank or malformed — a bad knob never stops an import."""
    text = os.environ.get(name, "").strip()
    if not text:
        return default
    try:
        return parse(text)
    except ValueError:
        return default


def _label_key(labels: dict) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class Counter:
    """A monotonically increasing counter, optionally split by labels.

    Mutation is guarded by a per-metric lock: the read-modify-write in
    :meth:`inc` loses updates under statement parallelism otherwise (two
    threads read the same old value, both write old+1).  The lock is only
    taken when the registry is *enabled*, so the disabled hot path stays a
    single attribute check in :class:`MetricsRegistry`.
    """

    __slots__ = ("name", "help", "_values", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    @property
    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def by_label(self) -> dict[str, float]:
        with self._lock:
            return {_label_str(k): v for k, v in sorted(self._values.items())}

    def series(self) -> list[tuple[LabelKey, float]]:
        """Stable snapshot of every labeled series (SYS.METRICS reads it)."""
        with self._lock:
            return sorted(self._values.items())

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge:
    """A point-in-time value (e.g. buffer frames in use)."""

    __slots__ = ("name", "help", "_values", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    def by_label(self) -> dict[str, float]:
        with self._lock:
            return {_label_str(k): v for k, v in sorted(self._values.items())}

    def series(self) -> list[tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


#: default histogram buckets — tuned for "how many subtuples / pages /
#: nodes did one operation touch" style distributions
DEFAULT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)

#: buckets for statement-latency histograms (milliseconds) — sub-100µs
#: point lookups up to multi-second analytical scans
LATENCY_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
)


def interpolated_quantile(
    bounds: Iterable[float],
    bucket_counts: Iterable[int],
    count: int,
    low: Optional[float],
    high: Optional[float],
    q: float,
) -> Optional[float]:
    """Linearly interpolated quantile from fixed-bucket counts.

    The covering bucket is located by cumulative count, then the value is
    interpolated linearly inside it (Prometheus ``histogram_quantile``
    style) instead of snapping to the bucket's upper bound — an SLO gate
    comparing p99 against a ceiling must not be quantized to bucket
    edges.  The overflow bucket interpolates between the last finite
    bound and the observed maximum, and the result is clamped to the
    observed ``[low, high]`` envelope, so no quantile is ever ``inf``.

    Shared by :meth:`Histogram.quantile`, :meth:`Histogram.quantile_for`,
    and the windowed (bucket-delta) quantiles of
    :mod:`repro.obs.timeseries`.
    """
    if not count:
        return None
    target = q * count
    upper_bounds = list(bounds) + [high if high is not None else math.inf]
    value: Optional[float] = high
    cumulative = 0
    previous = 0.0
    for upper, bucket_count in zip(upper_bounds, bucket_counts):
        if bucket_count:
            cumulative += bucket_count
            if cumulative >= target:
                fraction = (target - (cumulative - bucket_count)) / bucket_count
                if math.isinf(upper):  # overflow with no recorded max
                    value = previous
                else:
                    value = previous + fraction * (upper - previous)
                break
        previous = upper if not math.isinf(upper) else previous
    if value is None:
        return None
    if low is not None:
        value = max(value, low)
    if high is not None:
        value = min(value, high)
    return float(value)


class _HistogramSeries:
    __slots__ = ("count", "sum", "min", "max", "bucket_counts")

    def __init__(self, n_buckets: int):
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.bucket_counts = [0] * (n_buckets + 1)  # +inf overflow bucket


class Histogram:
    """A distribution of observed values with fixed upper-bound buckets.

    Like :class:`Counter`, every series mutation in :meth:`observe` is a
    read-modify-write over several fields — a per-metric lock keeps the
    count / sum / bucket increments atomic under statement parallelism.
    """

    __slots__ = ("name", "help", "buckets", "_series", "_lock")

    def __init__(
        self, name: str, help: str = "", buckets: Optional[Iterable[float]] = None
    ):
        self.name = name
        self.help = help
        self.buckets: tuple[float, ...] = tuple(buckets or DEFAULT_BUCKETS)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError(f"histogram {name!r}: buckets must be sorted")
        self._series: dict[LabelKey, _HistogramSeries] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            series.count += 1
            series.sum += value
            series.min = value if series.min is None else min(series.min, value)
            series.max = value if series.max is None else max(series.max, value)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series.bucket_counts[index] += 1
                    return
            series.bucket_counts[-1] += 1

    def _summary_of(self, series: Optional[_HistogramSeries]) -> dict:
        if series is None:
            return {"count": 0, "sum": 0.0, "min": None, "max": None, "avg": None}
        return {
            "count": series.count,
            "sum": series.sum,
            "min": series.min,
            "max": series.max,
            "avg": series.sum / series.count if series.count else None,
            "buckets": {
                bound: count
                for bound, count in zip(
                    [str(b) for b in self.buckets] + ["+Inf"],
                    series.bucket_counts,
                )
            },
        }

    def summary(self, **labels: Any) -> dict:
        with self._lock:
            return self._summary_of(self._series.get(_label_key(labels)))

    def by_label(self) -> dict[str, dict]:
        with self._lock:
            return {
                _label_str(key): self._summary_of(series)
                for key, series in sorted(self._series.items())
            }

    def series(self) -> list[tuple[LabelKey, dict]]:
        """Stable snapshot of every labeled series with *raw* (non-
        cumulative) bucket counts — what SYS.METRICS and the Prometheus
        renderer consume."""
        with self._lock:
            out = []
            for key, series in sorted(self._series.items()):
                out.append(
                    (
                        key,
                        {
                            "count": series.count,
                            "sum": series.sum,
                            "min": series.min,
                            "max": series.max,
                            "bucket_counts": list(series.bucket_counts),
                        },
                    )
                )
            return out

    def combined(self) -> dict:
        """One summary across all labeled series (shell ``.stats``)."""
        count = 0
        total = 0.0
        low: Optional[float] = None
        high: Optional[float] = None
        bucket_counts = [0] * (len(self.buckets) + 1)
        for _key, snap in self.series():
            count += snap["count"]
            total += snap["sum"]
            if snap["min"] is not None:
                low = snap["min"] if low is None else min(low, snap["min"])
            if snap["max"] is not None:
                high = snap["max"] if high is None else max(high, snap["max"])
            for index, bucket_count in enumerate(snap["bucket_counts"]):
                bucket_counts[index] += bucket_count
        return {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "avg": total / count if count else None,
            "bucket_counts": bucket_counts,
        }

    def quantile(self, q: float) -> Optional[float]:
        """Interpolated quantile across **all** labeled series combined.

        Linear interpolation inside the covering bucket; the overflow
        bucket is clamped to the observed maximum instead of reporting
        ``inf`` (see :func:`interpolated_quantile`)."""
        combined = self.combined()
        return interpolated_quantile(
            self.buckets,
            combined["bucket_counts"],
            combined["count"],
            combined["min"],
            combined["max"],
            q,
        )

    def quantile_for(self, labels: dict, q: float) -> Optional[float]:
        """Interpolated quantile of **one** labeled series (``None`` when
        the series does not exist) — SLO objectives target a single
        series (e.g. ``kind=SELECT``), not the combined view."""
        with self._lock:
            series = self._series.get(_label_key(labels or {}))
            if series is None:
                return None
            bucket_counts = list(series.bucket_counts)
            count = series.count
            low = series.min
            high = series.max
        return interpolated_quantile(
            self.buckets, bucket_counts, count, low, high, q
        )

    def reset(self) -> None:
        with self._lock:
            self._series.clear()


class MetricsRegistry:
    """One process-wide family of named metrics.

    ``enabled`` is a plain attribute so instrumented hot paths can guard
    with a single attribute load::

        if METRICS.enabled:
            METRICS.inc("buffer.logical_reads")
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded value (metric objects stay registered)."""
        with self._lock:
            for family in (self._counters, self._gauges, self._histograms):
                for metric in family.values():
                    metric.reset()

    def clear(self) -> None:
        """Forget every metric entirely (tests use this for isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- registration --------------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter(name, help))
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name, help))
        return metric

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Iterable[float]] = None
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(
                    name, Histogram(name, help, buckets)
                )
        return metric

    # -- recording (guarded convenience forms) -------------------------------

    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        """Increment a counter — no-op while the registry is disabled."""
        if not self.enabled:
            return
        self.counter(name).inc(amount, **labels)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        if not self.enabled:
            return
        self.gauge(name).set(value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if not self.enabled:
            return
        self.histogram(name).observe(value, **labels)

    # -- reading -------------------------------------------------------------

    def counters(self) -> list[Counter]:
        """Sorted snapshot of every registered counter."""
        with self._lock:
            return [c for _name, c in sorted(self._counters.items())]

    def gauges(self) -> list[Gauge]:
        """Sorted snapshot of every registered gauge."""
        with self._lock:
            return [g for _name, g in sorted(self._gauges.items())]

    def histograms(self) -> list[Histogram]:
        """Sorted snapshot of every registered histogram."""
        with self._lock:
            return [h for _name, h in sorted(self._histograms.items())]

    def totals(self) -> dict[str, float]:
        """Flat ``{counter name: total across labels}`` view."""
        return {name: c.total for name, c in sorted(self._counters.items())}

    def delta(self, before: dict[str, float]) -> dict[str, float]:
        """Counter movement since a previous :meth:`totals` capture
        (zero-movement counters are omitted)."""
        out: dict[str, float] = {}
        for name, total in self.totals().items():
            moved = total - before.get(name, 0)
            if moved:
                out[name] = moved
        return out

    def snapshot(self) -> dict:
        """Everything, JSON-serializable."""
        return {
            "counters": {
                name: c.by_label() for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.by_label() for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.by_label() for name, h in sorted(self._histograms.items())
            },
        }

    def to_prometheus(self) -> str:
        """Render every metric in the Prometheus text exposition format.

        Delegates to :mod:`repro.obs.promtext`; benchmarks use this for
        file export, the TCP server exposes it via the ``METRICS`` verb,
        and the shell via ``.metrics``.
        """
        from .promtext import render_prometheus

        return render_prometheus(self)


#: the process-wide registry every engine component reports into
METRICS = MetricsRegistry()
