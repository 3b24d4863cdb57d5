"""Tests for PR 5's self-observability subsystem.

Covers the SYS.* virtual catalog (embedded and over TCP), the
query-latency histogram + slow-query log, Prometheus text rendering, the
thread-local tracer stack, and the locked metric mutation paths (the
8-thread exact-total regression)."""

import json
import pathlib
import re
import threading
import time

import pytest

from repro import obs
from repro.database import Database
from repro.datasets import paper
from repro.errors import ExecutionError, ReproError
from repro.obs import METRICS, TRACER
from repro.obs.metrics import LATENCY_BUCKETS_MS, MetricsRegistry
from repro.obs.promtext import render_prometheus
from repro.obs.querylog import QueryLog, QueryRecord, fingerprint
from repro.obs.sysviews import (
    _SCHEMAS,
    SYS_VIEW_NAMES,
    is_sys_table,
    sys_view_schema,
)


@pytest.fixture(autouse=True)
def _clean_observability():
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
# satellite: locked metric mutation (exact totals under 8 threads)
# ---------------------------------------------------------------------------


def _hammer(fn, threads=8, per_thread=2000):
    barrier = threading.Barrier(threads)

    def work():
        barrier.wait()
        for _ in range(per_thread):
            fn()

    pool = [threading.Thread(target=work) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    return threads * per_thread


def test_counter_inc_exact_total_under_8_threads():
    registry = MetricsRegistry(enabled=True)
    counter = registry.counter("hammered")
    expected = _hammer(lambda: counter.inc())
    assert counter.total == expected


def test_labeled_counter_exact_totals_under_8_threads():
    registry = MetricsRegistry(enabled=True)
    expected = _hammer(lambda: registry.inc("hammered", kind="x"))
    assert registry.counter("hammered").value(kind="x") == expected


def test_gauge_inc_exact_total_under_8_threads():
    registry = MetricsRegistry(enabled=True)
    gauge = registry.gauge("level")
    expected = _hammer(lambda: gauge.inc())
    assert gauge.value() == expected


def test_histogram_observe_exact_count_under_8_threads():
    registry = MetricsRegistry(enabled=True)
    histogram = registry.histogram("dist")
    expected = _hammer(lambda: histogram.observe(3))
    summary = histogram.summary()
    assert summary["count"] == expected
    assert summary["sum"] == 3 * expected
    assert histogram.summary()["buckets"]["5"] == expected


# ---------------------------------------------------------------------------
# satellite: thread-local tracer stacks
# ---------------------------------------------------------------------------


def test_tracer_stacks_are_thread_local():
    tracer = obs.Tracer(enabled=True, keep=64)
    errors = []
    barrier = threading.Barrier(4)

    def work(tag):
        barrier.wait()
        for i in range(50):
            with tracer.span(f"root-{tag}") as root:
                with tracer.span(f"child-{tag}") as child:
                    pass
                if tracer.current_span is not root:
                    errors.append(f"{tag}: stack corrupted at {i}")
                if child not in root.children or len(root.children) != 1:
                    errors.append(f"{tag}: wrong children {root.children}")

    pool = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert errors == []
    # every finished trace is a consistent single-thread tree
    assert len(tracer.traces) == 64
    for trace in tracer.traces:
        tag = trace.root.name.split("-")[1]
        assert [c.name for c in trace.root.children] == [f"child-{tag}"]
        assert trace.thread_id is not None


def test_trace_records_thread_and_session():
    tracer = obs.Tracer(enabled=True)
    tracer.set_session("client-42")
    with tracer.span("statement"):
        pass
    trace = tracer.last_trace
    assert trace.session == "client-42"
    assert trace.thread_name == threading.current_thread().name
    data = trace.to_dict()
    assert data["session"] == "client-42"
    restored = obs.Trace.from_dict(data)
    assert restored.session == "client-42"
    tracer.set_session(None)
    with tracer.span("statement"):
        pass
    assert tracer.last_trace.session is None


def test_session_statements_tag_traces():
    db = make_paper_db()
    TRACER.enable()
    with db.session(name="abc") as session:
        session.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    assert TRACER.last_trace.session == "abc"


def test_concurrent_sessions_no_tracer_corruption():
    """The acceptance stress: traced statements from many sessions must
    produce one well-formed trace per statement, tagged per session."""
    db = make_paper_db()
    obs.enable()
    TRACER.traces = type(TRACER.traces)(maxlen=512)
    errors = []
    barrier = threading.Barrier(4)

    def work(n):
        name = f"s{n}"
        try:
            with db.session(name=name) as session:
                barrier.wait()
                for _ in range(25):
                    session.query(
                        "SELECT x.DNO FROM x IN DEPARTMENTS "
                        "WHERE EXISTS y IN x.PROJECTS y.PNO > 0"
                    )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"{name}: {exc}")

    pool = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert errors == []
    statements = [t for t in TRACER.traces if t.root.name == "statement"]
    assert len(statements) == 100
    for trace in statements:
        assert trace.session in {"s0", "s1", "s2", "s3"}
        # parse is recorded once per statement; no foreign children leaked
        names = [c.name for c in trace.root.children]
        assert names.count("parse") == 1


# ---------------------------------------------------------------------------
# SYS.* schemas + resolution
# ---------------------------------------------------------------------------


def test_is_sys_table_and_schemas():
    assert is_sys_table("SYS.METRICS")
    assert is_sys_table("sys.metrics")
    assert not is_sys_table("SYSTEMS")
    assert not is_sys_table("SYS.NOPE")
    for view in SYS_VIEW_NAMES:
        schema = sys_view_schema(f"SYS.{view}")
        assert schema.name == f"SYS_{view}"


def test_sys_tables_and_indexes_views():
    db = make_paper_db()
    db.create_index("PN", "DEPARTMENTS", ("PROJECTS", "PNO"))
    rows = db.query(
        "SELECT t.NAME, t.KIND, t.TUPLES, t.DEPTH, t.INDEXES "
        "FROM t IN SYS.TABLES"
    ).to_plain()
    assert rows == [
        {
            "NAME": "DEPARTMENTS",
            "KIND": "nested",
            "TUPLES": 3,
            "DEPTH": 3,
            "INDEXES": 1,
        }
    ]
    idx = db.query(
        "SELECT i.NAME, i.TABLE_NAME, i.MODE, i.PATH, i.ENTRY_COUNT "
        "FROM i IN SYS.INDEXES"
    ).to_plain()
    assert idx[0]["NAME"] == "PN"
    assert idx[0]["TABLE_NAME"] == "DEPARTMENTS"
    assert idx[0]["PATH"] == "PROJECTS.PNO"
    assert idx[0]["ENTRY_COUNT"] > 0


def test_sys_metrics_histogram_buckets_nested_query():
    db = make_paper_db()
    METRICS.enable()
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    result = db.query(
        "SELECT m.NAME, B = (SELECT b.BOUND, b.COUNT FROM b IN m.BUCKETS) "
        "FROM m IN SYS.METRICS WHERE m.NAME CONTAINS 'latency'"
    ).to_plain()
    assert len(result) >= 1
    row = result[0]
    assert row["NAME"] == "query.latency_ms"
    bounds = [b["BOUND"] for b in row["B"]]
    assert bounds[: len(LATENCY_BUCKETS_MS)] == list(LATENCY_BUCKETS_MS)
    assert bounds[-1] == float("inf")
    assert sum(b["COUNT"] for b in row["B"]) >= 1


def test_sys_metrics_labels_subtable_and_kinds():
    db = make_paper_db()
    METRICS.enable()
    METRICS.inc("index.probes", index="FN")
    rows = db.query(
        "SELECT m.NAME, m.KIND, m.VALUE, "
        "L = (SELECT l.NAME, l.VALUE FROM l IN m.LABELS) "
        "FROM m IN SYS.METRICS "
        "WHERE EXISTS l IN m.LABELS: l.VALUE = 'FN'"
    ).to_plain()
    assert rows == [
        {
            "NAME": "index.probes",
            "KIND": "counter",
            "VALUE": 1.0,
            "L": [{"NAME": "index", "VALUE": "FN"}],
        }
    ]


def test_sys_metrics_bucket_subscripting():
    """1-based subscripts reach into the BUCKETS list like any NF² list."""
    db = make_paper_db()
    METRICS.enable()
    histogram = METRICS.histogram("work", buckets=(1, 10))
    histogram.observe(5)
    rows = db.query(
        "SELECT m.BUCKETS[2].COUNT AS MID FROM m IN SYS.METRICS "
        "WHERE m.NAME = 'work'"
    ).to_plain()
    assert rows == [{"MID": 1}]


def test_sys_queries_ring_and_counter_deltas():
    db = make_paper_db()
    METRICS.enable()
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314")
    rows = db.query(
        "SELECT q.KIND, q.TUPLES, q.FINGERPRINT, "
        "C = (SELECT c.NAME, c.DELTA FROM c IN q.COUNTERS) "
        "FROM q IN SYS.QUERIES WHERE q.KIND = 'SELECT'"
    ).to_plain()
    assert rows, "the ring must hold the finished SELECT"
    first = rows[0]
    assert first["TUPLES"] == 1
    assert len(first["FINGERPRINT"]) == 12
    deltas = {c["NAME"]: c["DELTA"] for c in first["C"]}
    assert deltas.get("query.rows_scanned", 0) > 0


def test_sys_sessions_and_locks_views():
    db = make_paper_db()
    with db.session(name="watcher") as session:
        rows = session.query(
            "SELECT s.NAME, s.IN_TXN, s.STATEMENTS FROM s IN SYS.SESSIONS"
        ).to_plain()
        assert rows == [{"NAME": "watcher", "IN_TXN": False, "STATEMENTS": 1}]
        with session.transaction():
            session.execute("UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 314")
            locks = session.query(
                "SELECT k.TXN_NAME, k.LEVEL, k.MODE, k.GRANTED "
                "FROM k IN SYS.LOCKS WHERE k.LEVEL <> 'wal'"
            ).to_plain()
            held = {(r["TXN_NAME"], r["LEVEL"], r["MODE"]) for r in locks}
            # UPDATE locks like an autocommit statement: table IX plus
            # the updated object X
            assert ("watcher", "table", "IX") in held
            assert ("watcher", "object", "X") in held
            assert all(r["GRANTED"] for r in locks)
    assert db.query("SELECT s.NAME FROM s IN SYS.SESSIONS").to_plain() == []


def test_sys_wal_view(tmp_path):
    mem = Database()
    assert mem.query("SELECT w.PATH FROM w IN SYS.WAL").to_plain() == []
    db = Database(path=str(tmp_path / "db.aim"))
    try:
        db.execute("CREATE TABLE T (A INT)")
        db.execute("INSERT INTO T VALUES (1)")
        rows = db.query(
            "SELECT w.PATH, w.COMMITS, w.IN_TXN FROM w IN SYS.WAL"
        ).to_plain()
        assert len(rows) == 1
        assert rows[0]["PATH"].endswith(".wal")
        assert rows[0]["COMMITS"] >= 2
        assert rows[0]["IN_TXN"] is False
    finally:
        db.close()


def test_sys_views_are_read_only():
    db = make_paper_db()
    with pytest.raises(ExecutionError, match="read-only system view"):
        db.insert("SYS.METRICS", {})
    with pytest.raises(ExecutionError, match="read-only system view"):
        db.drop_table("SYS.QUERIES")
    with pytest.raises(ExecutionError, match="read-only system view"):
        db.create_index("X", "SYS.LOCKS", ("TXN",))
    with pytest.raises(ReproError):
        db.update("SYS.WAL", None, {})
    with pytest.raises(ReproError):  # ASOF needs a versioned table
        db.query("SELECT m.NAME FROM m IN SYS.METRICS ASOF '1984-01-15'")


def test_explain_over_sys_table():
    db = make_paper_db()
    plan = db.explain("SELECT m.NAME FROM m IN SYS.METRICS")
    assert "m IN SYS.METRICS" in plan
    assert "system view" in plan
    analyzed = db.execute("EXPLAIN ANALYZE SELECT t.NAME FROM t IN SYS.TABLES")
    assert "system view" in analyzed


def test_sys_join_with_user_table():
    """SYS rows join against ordinary tables like any other relation."""
    db = make_paper_db()
    rows = db.query(
        "SELECT x.DNO, t.TUPLES FROM x IN DEPARTMENTS, t IN SYS.TABLES "
        "WHERE x.DNO = 314"
    ).to_plain()
    assert rows == [{"DNO": 314, "TUPLES": 3}]


# ---------------------------------------------------------------------------
# query latency histogram + slow-query log
# ---------------------------------------------------------------------------


def test_latency_histogram_labels_kind_and_table():
    db = make_paper_db()
    METRICS.enable()
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    db.execute("CREATE TABLE T2 (A INT)")
    db.execute("INSERT INTO T2 VALUES (1)")
    histogram = METRICS.histogram("query.latency_ms")
    assert histogram.buckets == LATENCY_BUCKETS_MS
    assert (
        histogram.summary(kind="SELECT", table="DEPARTMENTS")["count"] == 1
    )
    assert histogram.summary(kind="INSERT", table="T2")["count"] == 1
    # DDL carries no table name; it lands in the '-' series
    assert histogram.summary(kind="CREATE", table="-")["count"] == 1


def test_latency_histogram_not_recorded_when_disabled():
    db = make_paper_db()
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    assert METRICS.snapshot()["histograms"] == {}


def test_query_ring_records_errors_and_is_bounded():
    db = make_paper_db()
    with pytest.raises(ReproError):
        db.execute("SELECT nope FROM nothing IN NOWHERE")
    records = db.query_log.tail()
    assert records[-1].error is not None
    assert records[-1].kind == "SELECT"
    db.query_log.clear()
    for i in range(300):
        db.query(f"SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = {i}")
    assert len(db.query_log) == 128  # bounded ring
    assert db.query_log.recorded == 300
    # all 300 share one literal-normalized fingerprint
    assert len({r.fingerprint for r in db.query_log.tail()}) == 1


def test_fingerprint_normalizes_literals():
    a = fingerprint("SELECT x.A FROM x IN T WHERE x.A = 1")
    b = fingerprint("select x.a from x in t where x.a = 999")
    c = fingerprint("SELECT x.B FROM x IN T WHERE x.B = 1")
    assert a == b
    assert a != c
    assert fingerprint("... WHERE s = 'abc'") == fingerprint("... WHERE s = 'z'")


def test_slow_query_log_threshold(tmp_path):
    sink = tmp_path / "slow.jsonl"
    db = make_paper_db()
    db.query_log.configure(slow_ms=10_000, slow_log_path=str(sink))
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    assert not sink.exists(), "fast statements stay out of the sink"
    db.query_log.configure(slow_ms=0.0, slow_log_path=str(sink))
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314")
    lines = sink.read_text().strip().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["kind"] == "SELECT"
    assert entry["rows"] == 1
    assert entry["latency_ms"] >= 0
    assert entry["fingerprint"]
    assert db.query_log.slow_logged == 1


def test_slow_query_env_configuration(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "2.5")
    monkeypatch.setenv("REPRO_SLOW_QUERY_LOG", str(tmp_path / "s.jsonl"))
    log = QueryLog()
    assert log.slow_ms == 2.5
    assert log.slow_log_path == str(tmp_path / "s.jsonl")
    monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "not-a-number")
    assert QueryLog().slow_ms is None


# ---------------------------------------------------------------------------
# Prometheus text rendering
# ---------------------------------------------------------------------------


def test_prometheus_golden_output():
    registry = MetricsRegistry(enabled=True)
    registry.inc("buffer.hits", 5)
    registry.inc("index.probes", 2, index="FN")
    registry.set_gauge("buffer.frames_in_use", 3)
    histogram = registry.histogram("md.subtuples", "MD subtuples", buckets=(1, 5))
    histogram.observe(1)
    histogram.observe(4)
    histogram.observe(99)
    assert registry.to_prometheus() == (
        "# HELP repro_buffer_hits_total buffer.hits\n"
        "# TYPE repro_buffer_hits_total counter\n"
        "repro_buffer_hits_total 5\n"
        "# HELP repro_index_probes_total index.probes\n"
        "# TYPE repro_index_probes_total counter\n"
        'repro_index_probes_total{index="FN"} 2\n'
        "# HELP repro_buffer_frames_in_use buffer.frames_in_use\n"
        "# TYPE repro_buffer_frames_in_use gauge\n"
        "repro_buffer_frames_in_use 3\n"
        "# HELP repro_md_subtuples MD subtuples\n"
        "# TYPE repro_md_subtuples histogram\n"
        'repro_md_subtuples_bucket{le="1"} 1\n'
        'repro_md_subtuples_bucket{le="5"} 2\n'
        'repro_md_subtuples_bucket{le="+Inf"} 3\n'
        "repro_md_subtuples_sum 104\n"
        "repro_md_subtuples_count 3\n"
    )
    assert render_prometheus(registry) == registry.to_prometheus()


def test_prometheus_escapes_label_values():
    registry = MetricsRegistry(enabled=True)
    registry.inc("odd", 1, text='say "hi"\nthere\\')
    line = registry.to_prometheus().splitlines()[2]
    assert line == 'repro_odd_total{text="say \\"hi\\"\\nthere\\\\"} 1'


def test_prometheus_empty_registry_renders_empty():
    assert MetricsRegistry().to_prometheus() == ""


# ---------------------------------------------------------------------------
# histogram summaries (shell .stats backing)
# ---------------------------------------------------------------------------


def test_histogram_combined_and_quantile():
    registry = MetricsRegistry(enabled=True)
    histogram = registry.histogram("h", buckets=(1, 2, 5))
    for value, kind in [(1, "a"), (2, "a"), (2, "b"), (100, "b")]:
        histogram.observe(value, kind=kind)
    combined = histogram.combined()
    assert combined["count"] == 4
    assert combined["sum"] == 105
    assert combined["min"] == 1
    assert combined["max"] == 100
    # interpolated: q=0.5 lands mid-bucket (1, 2]; q=0.95 falls in the
    # overflow bucket, clamped to the observed max instead of inf
    assert histogram.quantile(0.5) == 1.5
    assert histogram.quantile(0.95) == pytest.approx(81.0)
    assert registry.histogram("empty").quantile(0.5) is None
    # per-label quantile targets one series only
    assert histogram.quantile_for({"kind": "a"}, 1.0) == 2.0
    assert histogram.quantile_for({"kind": "missing"}, 0.5) is None


def test_shell_stats_queries_and_metrics(capsys):
    import io

    from repro.shell import dot_command

    db = make_paper_db()
    METRICS.enable()
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    out = io.StringIO()
    dot_command(db, ".stats", out=out)
    text = out.getvalue()
    assert "query.latency_ms" in text and "histogram" in text
    assert "BUCKETS" not in text
    # the p95 bound .stats leaves out is the SYS.METRICS BUCKETS list
    rows = db.query(
        "SELECT m.COUNT, B = (SELECT b.CUMULATIVE FROM b IN m.BUCKETS) "
        "FROM m IN SYS.METRICS WHERE m.NAME = 'query.latency_ms'"
    ).to_plain()
    assert rows and all(row["COUNT"] >= 1 for row in rows)
    assert all(row["B"][-1]["CUMULATIVE"] == row["COUNT"] for row in rows)
    out = io.StringIO()
    dot_command(db, ".queries 5", out=out)
    assert "SELECT x.DNO FROM x IN DEPARTMENTS" in out.getvalue()
    out = io.StringIO()
    dot_command(db, ".metrics", out=out)
    assert "# TYPE repro_query_latency_ms histogram" in out.getvalue()
    out = io.StringIO()
    dot_command(db, ".slowlog 5", out=out)
    assert ">= 5 ms" in out.getvalue()
    assert db.query_log.slow_ms == 5.0
    out = io.StringIO()
    dot_command(db, ".slowlog off", out=out)
    assert "off" in out.getvalue()


def test_shell_metrics_export(tmp_path):
    import io

    from repro.shell import dot_command

    db = make_paper_db()
    METRICS.enable()
    db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    target = tmp_path / "metrics.prom"
    out = io.StringIO()
    dot_command(db, f".metrics {target}", out=out)
    assert "wrote" in out.getvalue()
    assert "repro_query_latency_ms_count" in target.read_text()


# ---------------------------------------------------------------------------
# over TCP: the acceptance criterion
# ---------------------------------------------------------------------------


def _start_server(db):
    from repro.server import AsyncDatabaseServer

    server = AsyncDatabaseServer(db, port=0)
    server.serve_background()
    return server


def test_sys_metrics_over_tcp_while_other_sessions_run():
    """`SELECT ... FROM m IN SYS.METRICS` over a TCP connection returns
    live histogram data while other clients run queries concurrently."""
    from repro.server import LineClient

    db = make_paper_db()
    obs.enable()  # metrics + tracing on: exercise tracer isolation too
    server = _start_server(db)
    host, port = server.address
    stop = threading.Event()
    worker_errors = []

    def churn():
        try:
            with LineClient(host, port) as client:
                while not stop.is_set():
                    out = client.send(
                        "SELECT x.DNO FROM x IN DEPARTMENTS "
                        "WHERE EXISTS y IN x.EQUIP: y.TYPE = 'PC/AT'"
                    )
                    if out.startswith("error"):
                        worker_errors.append(out)
                        return
        except Exception as exc:  # pragma: no cover - failure reporting
            worker_errors.append(repr(exc))

    workers = [threading.Thread(target=churn) for _ in range(2)]
    for w in workers:
        w.start()
    try:
        with LineClient(host, port) as client:
            deadline = time.monotonic() + 10
            seen = False
            while time.monotonic() < deadline and not seen:
                out = client.send(
                    "SELECT m.NAME, B = (SELECT b.BOUND, b.COUNT "
                    "FROM b IN m.BUCKETS) FROM m IN SYS.METRICS "
                    "WHERE m.NAME CONTAINS 'latency'"
                )
                assert not out.startswith("error"), out
                seen = "query.latency_ms" in out
            assert seen, "live latency histogram must be visible over TCP"
            # the scrape verb answers on the same wire
            prom = client.send("METRICS")
            assert "# TYPE repro_query_latency_ms histogram" in prom
            assert "repro_query_latency_ms_bucket" in prom
            # per-session attribution is visible while clients are on
            sessions = client.send("SELECT s.NAME FROM s IN SYS.SESSIONS")
            assert "client-" in sessions
    finally:
        stop.set()
        for w in workers:
            w.join(timeout=10)
        server.shutdown()
    assert worker_errors == []
    # tracer-stack integrity: every finished statement trace is a tree
    # rooted at "statement" with exactly one parse child
    statements = [t for t in TRACER.traces if t.root.name == "statement"]
    assert statements, "traced statements must have been recorded"
    for trace in statements:
        names = [c.name for c in trace.root.children]
        assert names.count("parse") == 1
        assert trace.session is None or trace.session.startswith("client-")


def test_sys_queries_over_tcp_shows_other_sessions():
    from repro.server import LineClient

    db = make_paper_db()
    server = _start_server(db)
    host, port = server.address
    try:
        with LineClient(host, port) as a, LineClient(host, port) as b:
            a.send("SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314")
            out = b.send(
                "SELECT q.KIND, q.SESSION FROM q IN SYS.QUERIES "
                "WHERE q.SESSION CONTAINS 'client'"
            )
            assert "SELECT" in out
    finally:
        server.shutdown()


# ---------------------------------------------------------------------------
# misc regression: recording survives odd inputs
# ---------------------------------------------------------------------------


def test_query_record_to_dict_roundtrips_through_json():
    record = QueryRecord(
        text="SELECT x.A FROM x IN T",
        kind="SELECT",
        latency_ms=1.25,
        rows=3,
        tables=["T"],
        counters={"buffer.hits": 2.0},
        session="s1",
    )
    data = json.loads(json.dumps(record.to_dict()))
    assert data["kind"] == "SELECT"
    assert data["tables"] == ["T"]
    assert data["counters"]["buffer.hits"] == 2.0


def test_sys_query_does_not_self_deadlock():
    """Reading SYS.QUERIES from inside a session must not trip over the
    statement currently being recorded."""
    db = make_paper_db()
    with db.session() as session:
        for _ in range(3):
            session.query("SELECT q.KIND FROM q IN SYS.QUERIES")
    assert len(db.query_log) >= 3


# ---------------------------------------------------------------------------
# every column selects, and the documented examples run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "view, column",
    [
        (view, attribute.name)
        for view, schema in _SCHEMAS.items()
        for attribute in schema.attributes
    ],
)
def test_every_sys_column_selects(paper_db, view, column):
    # keyword-named columns (TEXT, VERSIONED, ...) are attribute names here
    result = paper_db.query(f"SELECT v.{column} FROM v IN SYS.{view}")
    assert [a.name for a in result.schema.attributes] == [column]


def _documented_statements():
    doc = pathlib.Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"
    blocks = re.findall(r"```sql\n(.*?)```", doc.read_text(), re.DOTALL)
    return [
        statement.strip()
        for block in blocks
        for statement in block.split(";")
        if statement.strip()
    ]


def test_documented_sys_queries_run(paper_db):
    statements = _documented_statements()
    assert len(statements) >= 7
    for statement in statements:
        paper_db.query(statement)
