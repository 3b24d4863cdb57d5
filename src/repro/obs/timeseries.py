"""Metric history: a background recorder turning the live registry into
ring-buffer time series.

Every ``SYS.METRICS`` surface before this module was point-in-time — a
counter total, a gauge level, a histogram of everything since startup.
The :class:`TimeSeriesRecorder` adds the missing axis: every
``period_ms`` it snapshots **every** counter / gauge / histogram series
in :data:`~repro.obs.metrics.METRICS` into fixed-size rings, computing
per-sample deltas and rates, and downsamples the raw tier into coarser
resolutions (``1x`` raw → ``10x`` → ``60x`` by default) so an hour of
history costs the same memory as a minute.

The history is exposed as the ``SYS.METRICS_HISTORY`` virtual NF²
relation — one row per (metric series × tier) with the samples as a
nested ``SAMPLES`` list subtable — and consumed by the SLO engine
(:mod:`repro.obs.slo`), whose sliding-window burn rates are counter
deltas and bucket-count diffs between two samples of these rings.

Like the ASH sampler, the recorder is **constructed idle**: opening a
database never spawns a thread; ``db.ts.start()`` does (the server's
``--monitor`` flag and the benchmarks call it).  ``sample_once()`` takes
one deterministic snapshot for tests.

Environment knobs (read at construction):

* ``REPRO_TS_PERIOD_MS`` — base sampling period (default 1000 ms)
* ``REPRO_TS_KEEP`` — samples retained per series *per tier*
  (default 360: an hour of raw history at the default period)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Iterator, Optional

from repro.obs.metrics import (
    METRICS,
    _label_key,
    env_number,
    interpolated_quantile,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database import Database

#: downsampling factors: tier *i* keeps one sample every ``factor`` ticks
TIER_FACTORS = (1, 10, 60)


class TsSample:
    """One point of one metric series at one resolution.

    ``value`` is the cumulative counter total / gauge level / histogram
    observation count at ``ts``; ``delta`` and ``rate`` are movement
    since the previous sample of the *same tier*.  Histogram samples
    additionally carry the cumulative ``sum`` and a snapshot of the
    cumulative ``bucket_counts`` (what windowed quantiles diff), plus
    ``avg`` — mean observed value across the interval.
    """

    __slots__ = ("ts", "value", "delta", "rate", "avg", "sum", "buckets",
                 "low", "high")

    def __init__(
        self,
        ts: float,
        value: float,
        delta: Optional[float],
        rate: Optional[float],
        avg: Optional[float] = None,
        sum: Optional[float] = None,
        buckets: Optional[tuple] = None,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ):
        self.ts = ts
        self.value = value
        self.delta = delta
        self.rate = rate
        self.avg = avg
        self.sum = sum
        self.buckets = buckets
        self.low = low
        self.high = high


class _Series:
    """All tiers of one (kind, name, labels) metric series."""

    __slots__ = ("kind", "name", "label_key", "bounds", "tiers")

    def __init__(self, kind: str, name: str, label_key, bounds, keep: int):
        self.kind = kind
        self.name = name
        self.label_key = label_key
        self.bounds = bounds  # histogram bucket bounds (None otherwise)
        self.tiers: tuple[deque, ...] = tuple(
            deque(maxlen=keep) for _ in TIER_FACTORS
        )


class TimeSeriesRecorder:
    """The background recorder plus its per-series sample rings."""

    def __init__(
        self,
        db: "Database",
        period_ms: Optional[float] = None,
        keep: Optional[int] = None,
    ):
        self._db = db
        self.period_ms = (
            env_number("REPRO_TS_PERIOD_MS", 1000.0) if period_ms is None else period_ms
        )
        self.keep = env_number("REPRO_TS_KEEP", 360, int) if keep is None else keep
        self.ticks = 0  #: sampling rounds taken (thread or manual)
        self._series: dict[tuple, _Series] = {}
        self._latch = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> None:
        """Start the background recorder (idempotent)."""
        with self._latch:
            if self.running:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-ts", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop the recorder deterministically; the rings keep their
        samples.  ``Database.close()`` calls this — no ``repro-ts``
        thread may survive a closed database."""
        with self._latch:
            thread = self._thread
            self._thread = None
        if thread is not None and thread.is_alive():
            self._stop.set()
            thread.join(timeout=2.0)

    def _run(self) -> None:
        while not self._stop.wait(self.period_ms / 1000.0):
            try:
                self.sample_once()
            except Exception:  # observability must never crash the engine
                pass

    # -- sampling ----------------------------------------------------------

    def sample_once(self, now: Optional[float] = None) -> int:
        """Snapshot every registered metric series; returns the number of
        raw samples appended.  After sampling, the database's SLO engine
        (if any objectives are defined) is evaluated against the updated
        history — burn-rate alerting rides on the recorder's clock."""
        now = time.time() if now is None else now
        self.ticks += 1
        added = 0
        for counter in METRICS.counters():
            for key, value in counter.series():
                self._record(("counter", counter.name, key), now, float(value))
                added += 1
        for gauge in METRICS.gauges():
            for key, value in gauge.series():
                self._record(("gauge", gauge.name, key), now, float(value))
                added += 1
        for histogram in METRICS.histograms():
            bounds = histogram.buckets
            for key, snap in histogram.series():
                self._record(
                    ("histogram", histogram.name, key),
                    now,
                    float(snap["count"]),
                    sum_value=float(snap["sum"]),
                    buckets=tuple(snap["bucket_counts"]),
                    low=snap["min"],
                    high=snap["max"],
                    bounds=bounds,
                )
                added += 1
        slo = getattr(self._db, "slo", None)
        if slo is not None and slo.objectives:
            try:
                slo.evaluate(now=now)
            except Exception:  # alerting must never crash the recorder
                pass
        return added

    def _record(
        self,
        key: tuple,
        now: float,
        value: float,
        sum_value: Optional[float] = None,
        buckets: Optional[tuple] = None,
        low: Optional[float] = None,
        high: Optional[float] = None,
        bounds=None,
    ) -> None:
        with self._latch:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Series(
                    key[0], key[1], key[2], bounds, self.keep
                )
            for index, factor in enumerate(TIER_FACTORS):
                if self.ticks % factor:
                    continue
                ring = series.tiers[index]
                previous = ring[-1] if ring else None
                if previous is None:
                    delta = rate = avg = None
                else:
                    delta = value - previous.value
                    elapsed = now - previous.ts
                    rate = delta / elapsed if elapsed > 0 else None
                    avg = None
                    if sum_value is not None and delta:
                        avg = (sum_value - (previous.sum or 0.0)) / delta
                ring.append(
                    TsSample(
                        ts=now,
                        value=value,
                        delta=delta,
                        rate=rate,
                        avg=avg,
                        sum=sum_value,
                        buckets=buckets,
                        low=low,
                        high=high,
                    )
                )

    def clear(self) -> None:
        with self._latch:
            self._series.clear()
        self.ticks = 0

    # -- reading -----------------------------------------------------------

    def tier_name(self, index: int) -> str:
        """Human tier label: effective resolution in seconds (``1s``,
        ``10s``, ``60s`` at the default period)."""
        seconds = self.period_ms * TIER_FACTORS[index] / 1000.0
        return f"{seconds:g}s"

    def series_rows(self) -> Iterator[dict]:
        """One plain row per (series × non-empty tier), the
        ``SYS.METRICS_HISTORY`` producer's shape."""
        with self._latch:
            snapshot = [
                (key, series, [list(ring) for ring in series.tiers])
                for key, series in sorted(self._series.items())
            ]
        for (kind, name, label_key), series, rings in snapshot:
            for index, samples in enumerate(rings):
                if not samples:
                    continue
                last = samples[-1]
                yield {
                    "NAME": name,
                    "KIND": kind,
                    "LABELS": [
                        {"NAME": k, "VALUE": str(v)} for k, v in label_key
                    ],
                    "TIER": self.tier_name(index),
                    "RESOLUTION_S": self.period_ms
                    * TIER_FACTORS[index]
                    / 1000.0,
                    "POINTS": len(samples),
                    "LAST_TS": last.ts,
                    "LAST_VALUE": last.value,
                    "LAST_RATE": last.rate,
                    "SAMPLES": [
                        {
                            "TS": s.ts,
                            "VALUE": s.value,
                            "DELTA": s.delta,
                            "RATE": s.rate,
                            "AVG": s.avg,
                        }
                        for s in samples
                    ],
                }

    def _matching(self, kind: str, name: str, labels: Optional[dict]) -> list:
        """Raw-tier sample lists of the matching series.  Non-empty
        *labels* select exactly one series; empty/None labels aggregate
        **all** label combinations of the metric (the "no labels = the
        whole metric" convention of ``METRICS.totals()``)."""
        with self._latch:
            if labels:
                series = self._series.get((kind, name, _label_key(labels)))
                found = [series] if series is not None else []
            else:
                found = [
                    series
                    for (k, n, _key), series in self._series.items()
                    if k == kind and n == name
                ]
            return [
                (series, list(series.tiers[0])) for series in found
            ]

    @staticmethod
    def _window_of(
        samples: list, window_s: float, now: Optional[float]
    ) -> tuple[Optional[TsSample], Optional[TsSample]]:
        """The newest raw sample and the window *baseline*: the newest
        sample at or before ``now - window_s`` (``None`` baseline when
        the series started inside the window — deltas then count from
        the series' birth, i.e. from zero)."""
        if not samples:
            return None, None
        newest = samples[-1]
        horizon = (newest.ts if now is None else now) - window_s
        baseline = None
        for sample in reversed(samples):
            if sample.ts <= horizon:
                baseline = sample
                break
        return newest, baseline

    def windowed_delta(
        self,
        name: str,
        labels: Optional[dict] = None,
        window_s: float = 300.0,
        kind: str = "counter",
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Counter (or histogram-count) movement across the window,
        summed over the matching series; ``None`` when none has samples
        yet."""
        total = None
        for _series, samples in self._matching(kind, name, labels):
            newest, baseline = self._window_of(samples, window_s, now)
            if newest is None:
                continue
            moved = newest.value - (
                baseline.value if baseline is not None else 0.0
            )
            total = moved if total is None else total + moved
        return total

    def windowed_quantile(
        self,
        name: str,
        labels: Optional[dict],
        window_s: float,
        q: float,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Interpolated quantile of a histogram series **over the
        window**: the bucket counts of the baseline sample are subtracted
        from the newest sample's, so only observations inside the window
        shape the result.  (The clamp envelope is the series' lifetime
        min/max — cumulative histograms don't retain per-window
        extrema.)"""
        bounds = None
        counts: Optional[list[int]] = None
        count = 0
        low = high = None
        for series, samples in self._matching("histogram", name, labels):
            newest, baseline = self._window_of(samples, window_s, now)
            if newest is None or newest.buckets is None:
                continue
            if baseline is not None and baseline.buckets is not None:
                moved = [
                    int(b) - int(a)
                    for b, a in zip(newest.buckets, baseline.buckets)
                ]
                count += int(newest.value - baseline.value)
            else:
                moved = [int(b) for b in newest.buckets]
                count += int(newest.value)
            if counts is None:
                bounds = series.bounds
                counts = moved
            else:  # same metric → same bucket layout
                counts = [a + b for a, b in zip(counts, moved)]
            if newest.low is not None:
                low = newest.low if low is None else min(low, newest.low)
            if newest.high is not None:
                high = newest.high if high is None else max(high, newest.high)
        if bounds is None or counts is None or count <= 0:
            return None
        return interpolated_quantile(bounds, counts, count, low, high, q)

    def windowed_gauge(
        self,
        name: str,
        labels: Optional[dict] = None,
        window_s: float = 300.0,
        agg: str = "max",
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Aggregate a gauge across the window (``max``/``min``/``avg``/
        ``last`` over the raw samples inside it, pooled across the
        matching series)."""
        values: list[float] = []
        for _series, samples in self._matching("gauge", name, labels):
            if not samples:
                continue
            horizon = (samples[-1].ts if now is None else now) - window_s
            inside = [s.value for s in samples if s.ts >= horizon]
            values.extend(inside if inside else [samples[-1].value])
        if not values:
            return None
        if agg == "max":
            return max(values)
        if agg == "min":
            return min(values)
        if agg == "avg":
            return sum(values) / len(values)
        return values[-1]
