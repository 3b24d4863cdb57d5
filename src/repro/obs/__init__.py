"""repro.obs — end-to-end observability for the AIM-II reproduction.

Two process-wide singletons, both **disabled by default** (zero hot-path
cost when off):

* :data:`METRICS` — a :class:`~repro.obs.metrics.MetricsRegistry` of
  counters / gauges / histograms that the storage, index, and query layers
  report into (MD-subtuple reads, pointer dereferences, B-tree node
  visits, buffer hits/misses, rows scanned per range, ...);
* :data:`TRACER` — a :class:`~repro.obs.trace.Tracer` producing per-
  statement span trees (parse/bind/plan/execute), exportable as JSON or
  Chrome ``trace_event`` files.

Typical use::

    from repro import obs

    with obs.profiled():            # enables both, restores state after
        db.query("SELECT ...")
    print(obs.METRICS.totals())
    obs.TRACER.export_chrome("trace.json")

``EXPLAIN ANALYZE`` and the shell's ``.profile on`` use exactly these
hooks; ``docs/OBSERVABILITY.md`` holds the full metric catalog.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_MS,
    METRICS,
    MetricsRegistry,
)
from repro.obs.promtext import render_prometheus
from repro.obs.querylog import QueryLog, QueryRecord, fingerprint
from repro.obs.slo import AlertEvent, SloEngine, SloObjective
from repro.obs.timeseries import TIER_FACTORS, TimeSeriesRecorder, TsSample
from repro.obs.trace import (
    Span,
    TRACER,
    Trace,
    Tracer,
    chrome_trace_json,
    new_trace_id,
    parse_trace_id,
)
from repro.obs.waits import WAITS, WaitRegistry, lock_event, wait_event

__all__ = [
    "AlertEvent",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "METRICS",
    "MetricsRegistry",
    "QueryLog",
    "QueryRecord",
    "SloEngine",
    "SloObjective",
    "Span",
    "TIER_FACTORS",
    "TRACER",
    "TimeSeriesRecorder",
    "Trace",
    "Tracer",
    "TsSample",
    "WAITS",
    "WaitRegistry",
    "chrome_trace_json",
    "enable",
    "disable",
    "fingerprint",
    "lock_event",
    "new_trace_id",
    "parse_trace_id",
    "profiled",
    "render_prometheus",
    "wait_event",
]


def enable() -> None:
    """Turn on both the metrics registry and the tracer."""
    METRICS.enable()
    TRACER.enable()


def disable() -> None:
    """Turn off both the metrics registry and the tracer."""
    METRICS.disable()
    TRACER.disable()


@contextmanager
def profiled(metrics: bool = True, tracing: bool = True) -> Iterator[None]:
    """Enable observability for a ``with`` block, restoring the previous
    enabled/disabled state afterwards."""
    was_metrics = METRICS.enabled
    was_tracing = TRACER.enabled
    if metrics:
        METRICS.enable()
    if tracing:
        TRACER.enable()
    try:
        yield
    finally:
        METRICS.enabled = was_metrics
        if not was_tracing and tracing:
            TRACER.disable()
        else:
            TRACER.enabled = was_tracing
