"""Tests for repro.obs — metrics registry, tracer, and the guarantee
that observability-off costs (almost) nothing."""

import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from repro import obs
from repro.database import Database
from repro.datasets import paper
from repro.obs import METRICS, TRACER
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Trace, Tracer


@pytest.fixture(autouse=True)
def _clean_observability():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    METRICS.clear()
    TRACER.traces.clear()
    TRACER.last_trace = None
    yield
    obs.disable()
    METRICS.clear()
    TRACER.traces.clear()
    TRACER.last_trace = None


def make_paper_db():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    return db


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


def test_counter_inc_and_totals():
    registry = MetricsRegistry(enabled=True)
    registry.inc("a.b")
    registry.inc("a.b", 4)
    registry.inc("c.d", 2)
    assert registry.totals() == {"a.b": 5, "c.d": 2}


def test_counter_labels_coexist_with_unlabeled():
    registry = MetricsRegistry(enabled=True)
    registry.inc("index.probes")
    registry.inc("index.probes", index="FN")
    registry.inc("index.probes", 2, index="PN")
    counter = registry.counter("index.probes")
    assert counter.total == 4
    assert counter.value(index="FN") == 1
    assert counter.value(index="PN") == 2
    assert counter.value() == 1
    by_label = counter.by_label()
    assert by_label["index=FN"] == 1


def test_delta_omits_unmoved_counters():
    registry = MetricsRegistry(enabled=True)
    registry.inc("x", 3)
    registry.inc("y", 1)
    before = registry.totals()
    registry.inc("x", 2)
    assert registry.delta(before) == {"x": 2}


def test_gauge_set_and_histogram_summary():
    registry = MetricsRegistry(enabled=True)
    registry.set_gauge("frames", 7)
    assert registry.gauge("frames").value() == 7
    for value in (1, 3, 3, 40, 2000):
        registry.observe("touched", value)
    summary = registry.histogram("touched").summary()
    assert summary["count"] == 5
    assert summary["min"] == 1
    assert summary["max"] == 2000
    assert summary["sum"] == 2047
    assert summary["buckets"]["1"] == 1
    assert summary["buckets"]["5"] == 2  # the two 3s
    assert summary["buckets"]["+Inf"] == 1  # the 2000


def test_registry_disabled_records_nothing():
    registry = MetricsRegistry()  # starts disabled
    registry.inc("a")
    registry.observe("h", 1)
    registry.set_gauge("g", 1)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {}
    assert snapshot["gauges"] == {}
    assert snapshot["histograms"] == {}


def test_snapshot_is_json_serializable():
    registry = MetricsRegistry(enabled=True)
    registry.inc("a.b", 2, table="T")
    registry.observe("h", 12)
    json.dumps(registry.snapshot())


def test_reset_keeps_metrics_clears_values():
    registry = MetricsRegistry(enabled=True)
    registry.inc("a", 5)
    registry.reset()
    assert registry.totals() == {"a": 0}


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_span_nesting_builds_a_tree():
    tracer = Tracer(enabled=True)
    with tracer.span("statement") as root:
        with tracer.span("parse"):
            pass
        with tracer.span("execute") as ex:
            ex.annotate(rows=3)
            with tracer.span("plan"):
                pass
    trace = tracer.last_trace
    assert trace is not None and trace.name == "statement"
    assert [c.name for c in trace.root.children] == ["parse", "execute"]
    assert trace.find("plan") is not None
    assert trace.find("execute").attrs["rows"] == 3
    assert trace.duration_ms >= 0


def test_tracer_disabled_yields_none_and_keeps_nothing():
    tracer = Tracer()
    with tracer.span("x") as span:
        assert span is None
    assert tracer.last_trace is None
    assert len(tracer.traces) == 0


def test_trace_json_round_trip():
    tracer = Tracer(enabled=True)
    with tracer.span("root", query="SELECT 1"):
        with tracer.span("child"):
            time.sleep(0.001)
    trace = tracer.last_trace
    data = trace.to_dict()
    restored = Trace.from_dict(json.loads(json.dumps(data)))
    assert restored.name == "root"
    assert restored.root.attrs == {"query": "SELECT 1"}
    assert [c.name for c in restored.root.children] == ["child"]
    with pytest.raises(ValueError):
        Trace.from_dict({"format": "nope"})


def test_chrome_export_shape(tmp_path):
    tracer = Tracer(enabled=True)
    with tracer.span("root"):
        with tracer.span("inner", detail={"k": "v"}):
            pass
    path = str(tmp_path / "trace.json")
    tracer.export_chrome(path)
    with open(path) as handle:
        payload = json.load(handle)
    events = payload["traceEvents"]
    assert [e["name"] for e in events] == ["root", "inner"]
    assert all(e["ph"] == "X" for e in events)
    assert events[0]["ts"] == 0


def test_profiled_restores_previous_state():
    assert not METRICS.enabled and not TRACER.enabled
    with obs.profiled():
        assert METRICS.enabled and TRACER.enabled
    assert not METRICS.enabled and not TRACER.enabled
    obs.enable()
    with obs.profiled():
        pass
    assert METRICS.enabled and TRACER.enabled


# ---------------------------------------------------------------------------
# end-to-end: the engine reports into the registry / tracer
# ---------------------------------------------------------------------------


def test_query_reports_engine_counters():
    db = make_paper_db()
    with obs.profiled(tracing=False):
        db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    totals = METRICS.totals()
    assert totals["storage.objects_opened"] == 3
    assert totals["query.rows_emitted"] == 3
    assert totals["storage.md_subtuple_reads"] > 0
    assert totals["storage.d_pointer_derefs"] > 0
    assert totals["buffer.logical_reads"] > 0


def test_index_probe_counters_with_labels():
    db = make_paper_db()
    db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    with obs.profiled(tracing=False):
        db.query(
            "SELECT x.DNO FROM x IN DEPARTMENTS "
            "WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS "
            "z.FUNCTION = 'Consultant'"
        )
    probes = METRICS.counter("index.probes")
    assert probes.value(index="FN") >= 1
    assert METRICS.totals()["index.btree_node_visits"] >= 1


def test_statement_trace_has_phases():
    db = make_paper_db()
    with obs.profiled():
        db.query("SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 0")
    trace = TRACER.last_trace
    assert trace is not None and trace.name == "statement"
    for phase in ("parse", "bind", "execute"):
        assert trace.find(phase) is not None, phase
    execute = trace.find("execute")
    assert execute.attrs["rows_emitted"] == 3
    assert execute.attrs["rows_scanned"] == {"x": 3}


def test_executor_profile_rows_per_range():
    db = make_paper_db()
    with obs.profiled(tracing=False):
        db.query(
            "SELECT y.PNO FROM x IN DEPARTMENTS, y IN x.PROJECTS"
        )
    profile = db._executor.last_profile
    assert profile is not None
    assert profile.rows_scanned["x"] == 3
    assert profile.rows_scanned["y"] == sum(
        len(row["PROJECTS"]) for row in paper.DEPARTMENTS_ROWS
    )


# ---------------------------------------------------------------------------
# the disabled hot path stays cheap
# ---------------------------------------------------------------------------


def test_disabled_run_records_nothing_and_makes_no_profile():
    db = make_paper_db()
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    assert METRICS.totals() == {}
    assert db._executor.last_profile is None
    assert TRACER.last_trace is None


def test_disabled_hot_path_does_not_allocate_in_obs(tmp_path):
    """With observability off, the obs modules must not allocate anything
    while a query runs — the instrumentation is one attribute check."""
    db = make_paper_db()
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS")  # warm caches
    import repro.obs.metrics as metrics_mod
    import repro.obs.trace as trace_mod

    tracemalloc.start()
    try:
        db.query(
            "SELECT x.DNO FROM x IN DEPARTMENTS "
            "WHERE EXISTS y IN x.PROJECTS y.PNO > 0"
        )
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    obs_files = {metrics_mod.__file__, trace_mod.__file__}
    offending = [
        stat
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename in obs_files and stat.count > 0
    ]
    assert offending == [], f"obs allocated on a disabled run: {offending}"


def test_disabled_overhead_is_small():
    """Micro-benchmark: instrumented-but-disabled execution stays within a
    generous factor of itself across runs (smoke guard against accidental
    per-tuple work being added to the disabled path)."""
    db = make_paper_db()
    query = (
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS y.PNO > 0"
    )
    db.query(query)  # warm

    def timed(runs: int = 30) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(runs):
                db.query(query)
            best = min(best, time.perf_counter() - start)
        return best

    disabled = timed()
    obs.enable()
    try:
        enabled = timed()
    finally:
        obs.disable()
    # enabled profiling costs something, but the *disabled* path must not
    # be the slow one; allow generous noise either way.
    assert disabled < enabled * 3 + 0.05


# ---------------------------------------------------------------------------
# REPRO_* knobs
# ---------------------------------------------------------------------------


def test_malformed_knobs_fall_back_to_their_defaults():
    """Numeric observability knobs are read when the package is imported
    or a Database is created; a value that does not parse must leave the
    default in place, not crash either."""
    knobs = (
        "REPRO_WAIT_SPAN_MIN_MS",
        "REPRO_TRACE_KEEP",
        "REPRO_TRACE_SLOW_MS",
        "REPRO_TRACE_SAMPLE",
        "REPRO_SLOW_QUERY_MS",
        "REPRO_ASH_PERIOD_MS",
        "REPRO_ASH_KEEP",
        "REPRO_TS_PERIOD_MS",
        "REPRO_TS_KEEP",
        "REPRO_SLO_WINDOW_S",
        "REPRO_SLO_FOR_MS",
        "REPRO_SLO_P99_MS",
        "REPRO_ALERTS_KEEP",
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, **{knob: "abc" for knob in knobs})
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "from repro.database import Database\n"
        "from repro.obs import TRACER, waits\n"
        "db = Database()\n"
        "db.slo.install_default_objectives()\n"
        "print(waits.WAIT_SPAN_MIN_MS, TRACER.keep, db.query_log.slow_ms,\n"
        "      db.ash.period_ms, db.ts.keep, db.slo.events.maxlen)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0.05", "128", "None", "10.0", "360", "1024"]
