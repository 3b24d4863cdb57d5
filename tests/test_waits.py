"""Tests for PR 6's wait-event attribution, active-session history, and
trace identity/retention.

Covers the wait registry (accumulation, cross-thread visibility), the
``waits:`` section of EXPLAIN ANALYZE under real lock contention, ASH
sampling of a blocked session, tail-based trace retention, the trace
serialization satellites (start offsets, real tids, cross-thread
disable), and the end-to-end acceptance path: a blocked statement's lock
wait attributed over TCP via an armed trace id, SYS.ASH, SYS.TRACES,
SYS.SPANS, and TRACE EXPORT."""

import json
import threading
import time

import pytest

from repro import obs
from repro.concurrency.locks import LockMode
from repro.database import Database
from repro.datasets import paper
from repro.obs import METRICS, TRACER, WAITS, chrome_trace_json
from repro.obs.trace import Span, Trace, Tracer
from repro.obs.waits import WaitRegistry, lock_event


@pytest.fixture(autouse=True)
def _clean_observability():
    obs.disable()
    METRICS.clear()
    TRACER.traces.clear()
    TRACER.last_trace = None
    WAITS.clear()
    yield
    obs.disable()
    METRICS.clear()
    TRACER.traces.clear()
    TRACER.last_trace = None
    WAITS.clear()


def make_paper_db():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    return db


# ---------------------------------------------------------------------------
# the wait registry
# ---------------------------------------------------------------------------


def test_wait_registry_accumulates_per_statement():
    registry = WaitRegistry()
    registry.begin_statement()
    with registry.wait("WAL/Fsync"):
        time.sleep(0.002)
    with registry.wait("WAL/Fsync"):
        pass
    with registry.wait("IO/PageRead", page=7):
        pass
    waits = registry.statement_waits()
    assert waits["WAL/Fsync"][0] == 2
    assert waits["WAL/Fsync"][1] >= 2.0  # ms
    assert waits["IO/PageRead"][0] == 1
    # take_statement pops: a second read starts from zero
    taken = registry.take_statement()
    assert taken == waits
    assert registry.statement_waits() == {}
    # lifetime totals survive the statement reset
    assert registry.totals()["WAL/Fsync"][0] == 2


def test_wait_registry_current_wait_is_cross_thread_visible():
    registry = WaitRegistry()
    entered = threading.Event()
    release = threading.Event()
    ident = {}

    def block():
        ident["value"] = threading.get_ident()
        with registry.wait("Lock/TableX", resource="T"):
            entered.set()
            release.wait(5)

    worker = threading.Thread(target=block)
    worker.start()
    assert entered.wait(5)
    try:
        current = registry.current_wait(ident["value"])
        assert current is not None
        event, elapsed_ms, detail = current
        assert event == "Lock/TableX"
        assert elapsed_ms >= 0.0
        assert detail["resource"] == "T"
        # the active-waits listing sees it too
        assert any(w[1] == "Lock/TableX" for w in registry.active())
    finally:
        release.set()
        worker.join(timeout=5)
    assert registry.current_wait(ident["value"]) is None


def test_lock_event_names_follow_the_requested_mode():
    assert lock_event(("table", "T"), LockMode.IS) == "Lock/TableIS"
    assert lock_event(("table", "T"), LockMode.X) == "Lock/TableX"
    assert lock_event(("object", "T", 3), LockMode.S) == "Lock/ObjectS"
    assert lock_event(("wal",), LockMode.X) == "Lock/Wal"


# ---------------------------------------------------------------------------
# attribution under real contention (in-process sessions)
# ---------------------------------------------------------------------------


def test_blocked_statement_waits_dominate_explain_analyze():
    db = make_paper_db()
    holder = db.session(name="holder")
    blocked = db.session(name="blocked")
    in_txn = threading.Event()
    release = threading.Event()
    result = {}

    def hold():
        with holder.transaction():
            holder.execute(
                "UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 314"
            )
            in_txn.set()
            release.wait(5)

    def read():
        in_txn.wait(5)
        result["plan"] = blocked.execute(
            "EXPLAIN ANALYZE SELECT x.DNO FROM x IN DEPARTMENTS"
        )

    t1 = threading.Thread(target=hold)
    t2 = threading.Thread(target=read)
    t1.start()
    t2.start()
    time.sleep(0.25)  # the reader is now parked on the writer's X lock
    release.set()
    t1.join(timeout=10)
    t2.join(timeout=10)
    plan = result["plan"]
    assert "waits:" in plan
    # the scan blocks on the updated object's X, not on the table
    assert "Lock/ObjectS" in plan
    # the blocked time is real: parse the total out of the waits line
    waits_line = next(
        l for l in plan.splitlines() if l.startswith("waits:")
    )
    blocked_ms = float(waits_line.split("waits:")[1].split("ms")[0])
    assert blocked_ms >= 100.0
    # and the session's lifetime totals picked it up
    summary = blocked.wait_summary()
    assert summary["Lock/ObjectS"][1] >= 100.0
    holder.close()
    blocked.close()


def test_ash_samples_a_waiting_session():
    db = make_paper_db()
    holder = db.session(name="holder")
    blocked = db.session(name="blocked")
    in_txn = threading.Event()
    release = threading.Event()

    def hold():
        with holder.transaction():
            holder.execute(
                "UPDATE DEPARTMENTS x SET BUDGET = 2 WHERE x.DNO = 314"
            )
            in_txn.set()
            release.wait(5)

    def read():
        in_txn.wait(5)
        blocked.query("SELECT x.DNO FROM x IN DEPARTMENTS")

    t1 = threading.Thread(target=hold)
    t2 = threading.Thread(target=read)
    t1.start()
    t2.start()
    try:
        in_txn.wait(5)
        deadline = time.monotonic() + 5
        waiting = None
        while time.monotonic() < deadline and waiting is None:
            db.ash.sample_once()
            waiting = next(
                (
                    s
                    for s in db.ash.tail()
                    if s.session == "blocked" and s.state == "waiting"
                ),
                None,
            )
            time.sleep(0.01)
    finally:
        release.set()
        t1.join(timeout=10)
        t2.join(timeout=10)
    assert waiting is not None, "ASH must catch the blocked session"
    assert waiting.wait_event == "Lock/ObjectS"
    assert waiting.statement.startswith("SELECT")
    assert waiting.fingerprint is not None
    # SYS.ASH serves the same sample through the SELECT pipeline
    rows = db.execute(
        "SELECT a.SESSION, a.STATE, a.WAIT_EVENT FROM a IN SYS.ASH "
        "WHERE a.STATE = 'waiting'"
    ).to_plain()
    assert any(
        r["SESSION"] == "blocked" and r["WAIT_EVENT"] == "Lock/ObjectS"
        for r in rows
    )
    holder.close()
    blocked.close()


def test_ash_background_thread_samples_and_stops():
    db = make_paper_db()
    session = db.session(name="busy")
    db.ash.start()
    assert db.ash.running
    db.ash.start()  # idempotent
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and not db.ash.samples:
        session.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    db.ash.stop()
    assert not db.ash.running
    assert db.ash.samples, "the sampler must have captured the session"
    ticks = db.ash.ticks
    time.sleep(0.05)
    assert db.ash.ticks == ticks  # really stopped
    session.close()
    db.close()  # close() stops an (already stopped) sampler without error


# ---------------------------------------------------------------------------
# tail-based trace retention + identity
# ---------------------------------------------------------------------------


def test_retention_keeps_errors_slow_and_pinned_traces():
    tracer = Tracer(enabled=True, keep=4, slow_ms=5.0)
    with pytest.raises(ValueError):
        with tracer.span("statement"):
            raise ValueError("boom")
    error_id = tracer.last_trace.trace_id
    with tracer.span("statement"):
        time.sleep(0.01)  # over slow_ms
    slow_id = tracer.last_trace.trace_id
    tracer.arm_trace_id("feedc0de")
    with tracer.span("statement"):
        pass
    for _ in range(20):
        with tracer.span("statement"):
            pass
    kept = {t.trace_id for t in tracer.traces}
    assert {error_id, slow_id, "feedc0de"} <= kept
    assert len(tracer.traces) <= 4
    assert tracer.get(error_id).error.startswith("ValueError")
    assert tracer.get("feedc0de").pinned


def test_retention_sampling_keeps_every_nth_unremarkable_trace():
    tracer = Tracer(enabled=True, keep=100, sample_every=5)
    for _ in range(20):
        with tracer.span("statement"):
            pass
    assert len(tracer.traces) == 4
    assert tracer.sampled_out == 16
    # important traces bypass the sampler entirely
    tracer.arm_trace_id("0123456789abcdef")
    with tracer.span("statement"):
        pass
    assert tracer.get("0123456789abcdef") is not None


def test_armed_id_forces_a_trace_through_a_disabled_tracer():
    tracer = Tracer(enabled=False, keep=8)
    with tracer.span("statement") as span:
        assert span is None  # disabled, unarmed: no trace
    assert tracer.arm_trace_id("ABCD1234") == "abcd1234"
    with tracer.span("statement") as span:
        assert span is not None
        with tracer.span("execute") as child:  # children forced too
            assert child is not None
    assert not tracer.enabled
    trace = tracer.get("abcd1234")
    assert trace is not None and trace.pinned
    assert [c.name for c in trace.root.children] == ["execute"]
    # the armed id is one-shot
    with tracer.span("statement") as span:
        assert span is None


def test_trace_id_parsing_accepts_traceparent():
    from repro.obs import parse_trace_id

    assert (
        parse_trace_id("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
        == "4bf92f3577b34da6a3ce929d0e0e4736"
    )
    assert parse_trace_id("  MyTrace.7 ") == "mytrace.7"
    with pytest.raises(ValueError):
        parse_trace_id("no spaces allowed")
    with pytest.raises(ValueError):
        parse_trace_id("")


# ---------------------------------------------------------------------------
# satellites: serialization offsets, real tids, cross-thread disable
# ---------------------------------------------------------------------------


def test_span_roundtrip_preserves_start_offsets():
    root = Span("statement", start=100.0)
    early = Span("parse", start=100.001)
    early.end = 100.002
    late = Span("execute", start=100.010)
    late.end = 100.040
    root.children = [early, late]
    root.end = 100.050
    trace = Trace(root, started_at=1234.5, trace_id="aa11")

    restored = Trace.from_dict(json.loads(json.dumps(trace.to_dict())))
    assert restored.trace_id == "aa11"
    parse, execute = restored.root.children
    # offsets (not just durations) survive the round trip
    assert parse.start - restored.root.start == pytest.approx(0.001, abs=1e-6)
    assert execute.start - restored.root.start == pytest.approx(0.010, abs=1e-6)
    assert execute.duration_ms == pytest.approx(30.0, abs=1e-3)
    # a legacy export without start_ms still loads (all spans at origin)
    legacy = {"name": "old", "duration_ms": 5.0}
    span = Span.from_dict(legacy, origin=7.0)
    assert span.start == 7.0 and span.duration_ms == pytest.approx(5.0)


def test_multi_trace_chrome_export_uses_real_thread_lanes():
    tracer = Tracer(enabled=True, keep=16)

    def run(name):
        with tracer.span("statement", who=name):
            with tracer.span("execute"):
                time.sleep(0.001)

    threads = [
        threading.Thread(target=run, args=(f"w{i}",), name=f"worker-{i}")
        for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    traces = list(tracer.traces)
    assert len(traces) == 2
    data = json.loads(chrome_trace_json(traces))
    events = data["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    # one thread_name metadata event per OS thread, carrying its real name
    assert {m["args"]["name"] for m in meta} == {"worker-0", "worker-1"}
    real_tids = {t.thread_id for t in traces}
    assert len(real_tids) == 2 and 1 not in real_tids
    assert {m["tid"] for m in meta} == real_tids
    assert {e["tid"] for e in spans} == real_tids
    # every trace contributes its statement and execute span
    assert sorted(e["name"] for e in spans) == [
        "execute", "execute", "statement", "statement",
    ]
    # single-trace export stays metadata-free (the stable legacy shape)
    single = json.loads(traces[0].to_chrome_json())
    assert all(e["ph"] == "X" for e in single["traceEvents"])


def test_disable_resets_other_threads_span_stacks():
    tracer = Tracer(enabled=True, keep=8)
    opened = threading.Event()
    disabled = threading.Event()
    outcome = {}

    def worker():
        with tracer.span("outer"):
            opened.set()
            disabled.wait(5)
            # the main thread disabled+enabled while "outer" was open;
            # this span must become a fresh root, not a child of the
            # stale "outer"
            with tracer.span("fresh"):
                pass
            outcome["root"] = tracer.thread_last_trace.root.name

    t = threading.Thread(target=worker)
    t.start()
    assert opened.wait(5)
    tracer.disable()
    tracer.enable()
    disabled.set()
    t.join(timeout=5)
    assert outcome["root"] == "fresh"


def test_querylog_records_waits_and_trace_id():
    from repro.obs.querylog import QueryRecord

    record = QueryRecord(
        text="SELECT x.A FROM x IN T",
        kind="SELECT",
        latency_ms=12.0,
        waits={"Lock/TableIS": (2, 11.25)},
        trace_id="beef",
    )
    assert record.wait_ms == pytest.approx(11.25)
    data = json.loads(json.dumps(record.to_dict()))
    assert data["waits"]["Lock/TableIS"] == {"count": 2, "time_ms": 11.25}
    assert data["trace_id"] == "beef"


# ---------------------------------------------------------------------------
# acceptance: the whole story over TCP
# ---------------------------------------------------------------------------


def test_lock_wait_attributed_end_to_end_over_tcp():
    """Two TCP sessions: A holds an object X lock, B arms a trace id and
    runs EXPLAIN ANALYZE into the lock.  The blocked time must show up
    (1) in B's ``waits:`` section, (2) as a waiting SYS.ASH sample, and
    (3) as a ``Lock/*`` wait span in the retained trace fetched by id
    from SYS.TRACES / SYS.SPANS and exported via TRACE EXPORT."""
    from repro.server import AsyncDatabaseServer, LineClient

    db = make_paper_db()
    db.ash.start()
    # B parks a worker on A's lock; A's COMMIT needs a second worker
    server = AsyncDatabaseServer(db, port=0, workers=2)
    server.serve_background()
    host, port = server.address
    trace_id = "cafe0123cafe0123"
    result = {}
    try:
        with LineClient(host, port) as a, LineClient(host, port) as b:
            assert "begin" in a.send("BEGIN")
            out = a.send(
                "UPDATE DEPARTMENTS x SET BUDGET = 3 WHERE x.DNO = 314"
            )
            assert not out.startswith("error"), out
            armed = b.send(f"TRACE {trace_id}")
            assert f"trace armed {trace_id}" in armed

            def blocked():
                result["plan"] = b.send(
                    "EXPLAIN ANALYZE SELECT x.DNO FROM x IN DEPARTMENTS"
                )

            t = threading.Thread(target=blocked)
            t.start()
            # while B is parked on the lock, ASH must sample it waiting
            deadline = time.monotonic() + 5
            ash_hit = None
            while time.monotonic() < deadline and ash_hit is None:
                rows = db.execute(
                    "SELECT a.SESSION, a.WAIT_EVENT, a.STATEMENT "
                    "FROM a IN SYS.ASH WHERE a.STATE = 'waiting'"
                ).to_plain()
                ash_hit = next(
                    (
                        r
                        for r in rows
                        if (r["WAIT_EVENT"] or "").startswith("Lock/")
                    ),
                    None,
                )
                time.sleep(0.01)
            assert "commit" in a.send("COMMIT")
            t.join(timeout=10)

            assert ash_hit is not None, "no waiting ASH sample was taken"
            assert "EXPLAIN" in ash_hit["STATEMENT"]
            plan = result["plan"]
            # A's open transaction holds table IX plus the object's X,
            # so B's scan blocks on that one object's S lock
            assert "waits:" in plan and "Lock/ObjectS" in plan
            assert f"trace: {trace_id}" in plan

            # the armed trace was retained (pinned) and is queryable by id
            traces = db.execute(
                "SELECT t.TRACE_ID, t.PINNED, t.SESSION, t.SPAN_COUNT "
                f"FROM t IN SYS.TRACES WHERE t.TRACE_ID = '{trace_id}'"
            ).to_plain()
            assert len(traces) == 1
            assert traces[0]["PINNED"] is True
            assert traces[0]["SESSION"].startswith("client-")
            spans = db.execute(
                "SELECT s.NAME, s.WAIT, s.DURATION_MS, s.PATH "
                f"FROM s IN SYS.SPANS WHERE s.TRACE_ID = '{trace_id}'"
            ).to_plain()
            lock_spans = [
                s for s in spans if s["WAIT"] and s["NAME"].startswith("Lock/")
            ]
            assert lock_spans, f"no wait span in {spans}"
            assert lock_spans[0]["DURATION_MS"] > 0

            # the query log links the statement to the trace by id
            logged = db.execute(
                "SELECT q.WAIT_MS, q.KIND FROM q IN SYS.QUERIES "
                f"WHERE q.TRACE_ID = '{trace_id}'"
            ).to_plain()
            assert len(logged) == 1
            assert logged[0]["WAIT_MS"] > 0

            # TRACE EXPORT hands back Chrome JSON holding the lock span
            payload = b.send(f"TRACE EXPORT {trace_id}")
            data = json.loads(payload)
            names = [e["name"] for e in data["traceEvents"]]
            assert any(n.startswith("Lock/") for n in names)
            # exporting everything works too, and bad ids answer an error
            assert "traceEvents" in json.loads(b.send("TRACE EXPORT"))
            assert b.send("TRACE EXPORT nope").startswith("error")
            assert b.send("TRACE such id!").startswith("error")
    finally:
        server.shutdown()


def test_armed_trace_id_follows_its_connection_across_workers():
    """``TRACE <id>`` arms the arming connection's next statement on
    whichever pool worker runs it, and never another connection's
    statement that happens to run on the worker that took the verb."""
    from repro.server import AsyncDatabaseServer, LineClient

    db = make_paper_db()
    server = AsyncDatabaseServer(db, port=0, workers=4)
    server.serve_background()
    host, port = server.address
    try:
        with LineClient(host, port) as a, LineClient(host, port) as b:
            for n in range(40):
                trace_id = "%016x" % (0xC0FFEE0000000000 + n)
                assert f"trace armed {trace_id}" in a.send(f"TRACE {trace_id}")
                b.send(f"SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = {n}")
                a.send(f"SELECT x.MGRNO FROM x IN DEPARTMENTS WHERE x.DNO = {n}")
                traced = db.execute(
                    "SELECT q.TEXT FROM q IN SYS.QUERIES "
                    f"WHERE q.TRACE_ID = '{trace_id}'"
                ).to_plain()
                assert [r["TEXT"] for r in traced] == [
                    f"SELECT x.MGRNO FROM x IN DEPARTMENTS WHERE x.DNO = {n}"
                ]
            untraced = db.execute(
                "SELECT q.TRACE_ID FROM q IN SYS.QUERIES "
                "WHERE q.TEXT CONTAINS '*x.DNO FROM*'"
            ).to_plain()
            assert len(untraced) == 40
            assert all(r["TRACE_ID"] is None for r in untraced)
    finally:
        server.shutdown()
        db.ash.stop()
