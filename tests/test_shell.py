"""Tests for the interactive shell's statement / dot-command handling."""

import io
import json

from repro import obs
from repro.database import Database
from repro.datasets import paper
from repro.shell import CANNED, dot_command, execute_line, run_script


def make_db():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    return db


def test_execute_query_prints_table():
    db = make_db()
    out = io.StringIO()
    execute_line(db, "SELECT x.DNO FROM x IN DEPARTMENTS", out=out)
    text = out.getvalue()
    assert "314" in text and "(3 tuples)" in text


def test_execute_dml_prints_count():
    db = make_db()
    out = io.StringIO()
    execute_line(db, "DELETE FROM DEPARTMENTS x WHERE x.DNO = 218", out=out)
    assert "1 tuple affected" in out.getvalue()


def test_execute_error_is_reported_not_raised():
    db = make_db()
    out = io.StringIO()
    execute_line(db, "SELECT x.NOPE FROM x IN DEPARTMENTS", out=out)
    assert "error:" in out.getvalue()
    execute_line(db, "THIS IS NOT SQL", out=out)
    assert "error:" in out.getvalue()


def run(db, line):
    out = io.StringIO()
    assert dot_command(db, line, out=out)
    return out.getvalue()


def canned(db, command):
    """What the dot-command's canned SELECT prints when run as a statement."""
    out = io.StringIO()
    execute_line(db, CANNED[command], out=out)
    return out.getvalue()


def test_dot_tables_and_schema():
    db = make_db()
    text = run(db, ".tables")
    assert text == canned(db, ".tables")
    row = db.query(
        "SELECT t.NAME, t.KIND, t.TUPLES FROM t IN SYS.TABLES"
    ).to_plain()
    assert row == [{"NAME": "DEPARTMENTS", "KIND": "nested", "TUPLES": 3}]
    assert "DEPARTMENTS" in text and "nested" in text
    out = io.StringIO()
    dot_command(db, ".schema DEPARTMENTS", out=out)
    assert "CREATE TABLE DEPARTMENTS" in out.getvalue()
    out = io.StringIO()
    dot_command(db, ".schema NOPE", out=out)
    assert "error" in out.getvalue()


def test_dot_indexes_and_stats():
    db = make_db()
    db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    text = run(db, ".indexes")
    assert text == canned(db, ".indexes")
    row = db.query(
        "SELECT i.NAME, i.TABLE_NAME, i.PATH FROM i IN SYS.INDEXES"
    ).to_plain()
    assert row == [{
        "NAME": "FN",
        "TABLE_NAME": "DEPARTMENTS",
        "PATH": "PROJECTS.MEMBERS.FUNCTION",
    }]
    assert "PROJECTS.MEMBERS.FUNCTION" in text
    # SYS.METRICS without its BUCKETS list (empty while profiling is off)
    text = run(db, ".stats")
    assert "{ LABELS }" in text and "AVG" in text and "BUCKETS" not in text


def test_dot_quit_and_unknown():
    db = make_db()
    out = io.StringIO()
    assert not dot_command(db, ".quit", out=out)
    assert dot_command(db, ".nonsense", out=out)
    assert "unknown command" in out.getvalue()


def test_run_script_multiple_statements():
    db = Database()
    out = io.StringIO()
    run_script(
        db,
        """
        CREATE TABLE T (A INT, S TABLE OF (B INT));
        INSERT INTO T VALUES (1, {(10), (20)});
        SELECT t.A, SUM(t.S.B) AS TOTAL FROM t IN T;
        """,
        out=out,
    )
    text = out.getvalue()
    assert "ok" in text
    assert "30" in text  # the SUM


def test_save_on_memory_database_reports_error():
    db = Database()
    out = io.StringIO()
    dot_command(db, ".save", out=out)
    assert "error" in out.getvalue()


# ---------------------------------------------------------------------------
# observability dot-commands
# ---------------------------------------------------------------------------


def test_execute_explain_prints_plan_text():
    db = make_db()
    out = io.StringIO()
    execute_line(db, "EXPLAIN SELECT x.DNO FROM x IN DEPARTMENTS", out=out)
    text = out.getvalue()
    assert "query plan:" in text
    assert "loop 1: x IN DEPARTMENTS" in text


def test_execute_explain_analyze_prints_actuals():
    db = make_db()
    out = io.StringIO()
    execute_line(
        db, "EXPLAIN ANALYZE SELECT x.DNO FROM x IN DEPARTMENTS", out=out
    )
    text = out.getvalue()
    assert "query plan (analyzed):" in text
    assert "timings:" in text
    obs.METRICS.clear()


def test_dot_profile_toggles_observability():
    db = make_db()
    out = io.StringIO()
    assert dot_command(db, ".profile on", out=out)
    assert "profiling on" in out.getvalue()
    assert obs.METRICS.enabled and obs.TRACER.enabled
    out = io.StringIO()
    dot_command(db, ".profile", out=out)
    assert "currently on" in out.getvalue()
    out = io.StringIO()
    dot_command(db, ".profile off", out=out)
    assert "profiling off" in out.getvalue()
    assert not obs.METRICS.enabled and not obs.TRACER.enabled


def test_dot_stats_includes_engine_counters_when_profiled():
    db = make_db()
    out = io.StringIO()
    dot_command(db, ".profile on", out=out)
    try:
        execute_line(db, "SELECT x.DNO FROM x IN DEPARTMENTS", out=out)
        text = run(db, ".stats")
        assert "storage.objects_opened" in text
        # the buffer-manager counters are SYS.METRICS series too
        assert "buffer.logical_reads" in text
    finally:
        dot_command(db, ".profile off", out=io.StringIO())
        obs.METRICS.clear()
        obs.TRACER.traces.clear()
        obs.TRACER.last_trace = None


def test_dot_trace_requires_a_finished_trace(tmp_path):
    db = make_db()
    out = io.StringIO()
    dot_command(db, ".trace nope.json", out=out)
    assert "no finished trace" in out.getvalue()
    dot_command(db, ".profile on", out=io.StringIO())
    try:
        execute_line(db, "SELECT x.DNO FROM x IN DEPARTMENTS", out=io.StringIO())
        path = tmp_path / "trace.json"
        out = io.StringIO()
        dot_command(db, f".trace {path}", out=out)
        assert "wrote" in out.getvalue()
        payload = json.loads(path.read_text())
        names = [event["name"] for event in payload["traceEvents"]]
        assert "statement" in names
    finally:
        dot_command(db, ".profile off", out=io.StringIO())
        obs.METRICS.clear()
        obs.TRACER.traces.clear()
        obs.TRACER.last_trace = None


def test_dot_queries_last_n():
    db = make_db()
    db.query_log.clear()
    for dno in (314, 218, 417):
        execute_line(db, f"SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = {dno}",
                     out=io.StringIO())
    text = run(db, ".queries 2")
    assert "(2 tuples)" in text
    assert "x.DNO = 314" not in text
    assert "x.DNO = 218" in text and "x.DNO = 417" in text
    assert "(0 tuples)" in run(db, ".queries 0")
    for bad in (".queries -1", ".queries x", ".ash -2", ".ash x"):
        assert run(db, bad).startswith("usage:")


def test_help_names_every_dispatched_command():
    import re

    from repro import shell

    db = make_db()
    named = set(re.findall(r"^    (\.[a-z]+)", shell.__doc__, re.MULTILINE))
    assert set(CANNED) <= named
    assert not dot_command(db, ".quit", out=io.StringIO())
    for command in sorted(named - {".quit"}):
        assert "unknown command" not in run(db, command), command
