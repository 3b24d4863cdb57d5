"""Tests for Database.explain."""

import pytest

from repro.errors import BindError


def test_explain_full_scan(paper_db):
    plan = paper_db.explain("SELECT x.DNO FROM x IN DEPARTMENTS")
    assert "loop 1: x IN DEPARTMENTS" in plan
    assert "full scan" in plan
    assert "relation (DNO)" in plan


def test_explain_index_access(paper_db):
    paper_db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    plan = paper_db.explain(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS "
        "z.FUNCTION = 'Consultant'"
    )
    assert "index (FN)" in plan
    assert "2 candidate object(s)" in plan


def test_explain_prefix_join(paper_db):
    paper_db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    paper_db.create_index("PN", "DEPARTMENTS", "PROJECTS.PNO")
    plan = paper_db.explain(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS "
        "(y.PNO = 17 AND EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant')"
    )
    assert "prefix joins on hierarchical addresses: 1" in plan


def test_explain_or_prevents_index(paper_db):
    paper_db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    plan = paper_db.explain(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE x.BUDGET = 1 OR x.BUDGET = 2"
    )
    assert "WHERE not index-coverable" in plan


def test_explain_multiple_loops_and_ordered_result(paper_db):
    plan = paper_db.explain(
        "SELECT y.PNO FROM x IN DEPARTMENTS, y IN x.PROJECTS ORDER BY y.PNO"
    )
    assert "loop 2: y IN x.PROJECTS" in plan
    assert "list (PNO)" in plan


def test_explain_validates(paper_db):
    with pytest.raises(BindError):
        paper_db.explain("SELECT x.NOPE FROM x IN DEPARTMENTS")


def test_explain_non_query(paper_db):
    assert "DeleteStatement" in paper_db.explain("DELETE FROM DEPARTMENTS")


# ---------------------------------------------------------------------------
# every range variable gets an access line
# ---------------------------------------------------------------------------


def test_explain_access_line_per_range(paper_db):
    plan = paper_db.explain(
        "SELECT y.PNO FROM x IN DEPARTMENTS, y IN x.PROJECTS"
    )
    assert plan.count("access:") == 2
    assert "nested scan of x.PROJECTS" in plan


def make_1nf_join_db():
    from repro.database import Database
    from repro.datasets import paper

    db = Database()
    db.create_table(paper.DEPARTMENTS_1NF_SCHEMA)
    db.create_table(paper.PROJECTS_1NF_SCHEMA)
    db.insert_many(
        "DEPARTMENTS-1NF", (r.to_plain() for r in paper.departments_1nf())
    )
    db.insert_many(
        "PROJECTS-1NF", (r.to_plain() for r in paper.projects_1nf())
    )
    return db


def test_explain_inner_table_index_nested_loops():
    db = make_1nf_join_db()
    db.create_index("PDNO", "PROJECTS-1NF", ("DNO",))
    plan = db.explain(
        "SELECT d.DNO FROM d IN DEPARTMENTS-1NF, p IN PROJECTS-1NF "
        "WHERE p.DNO = d.DNO"
    )
    assert "loop 2: p IN PROJECTS-1NF" in plan
    assert "index nested loops (PDNO)" in plan


def test_explain_inner_table_without_index_rescans():
    db = make_1nf_join_db()
    plan = db.explain(
        "SELECT d.DNO FROM d IN DEPARTMENTS-1NF, p IN PROJECTS-1NF "
        "WHERE p.DNO = d.DNO"
    )
    assert "full scan (re-scanned per outer binding)" in plan


# ---------------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE as statements
# ---------------------------------------------------------------------------


def test_explain_statement_via_execute(paper_db):
    plan = paper_db.execute("EXPLAIN SELECT x.DNO FROM x IN DEPARTMENTS")
    assert isinstance(plan, str)
    assert "query plan:" in plan
    assert "loop 1: x IN DEPARTMENTS" in plan


def test_explain_nested_is_rejected(paper_db):
    from repro.errors import ParseError

    with pytest.raises(ParseError):
        paper_db.execute(
            "EXPLAIN EXPLAIN SELECT x.DNO FROM x IN DEPARTMENTS"
        )


def test_explain_analyze_reports_actuals(paper_db):
    text = paper_db.execute(
        "EXPLAIN ANALYZE SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE x.BUDGET > 0"
    )
    assert "query plan (analyzed):" in text
    assert "actual: 3 row(s) scanned" in text
    assert "result: 3 row(s)" in text
    assert "predicate evaluations: 3" in text
    assert "timings:" in text
    for phase in ("parse:", "bind:", "execute:", "total:"):
        assert phase in text
    assert "buffer (delta):" in text
    assert "engine counters (delta):" in text
    assert "storage.md_subtuple_reads" in text


def test_explain_analyze_shows_predicted_and_actual_path(paper_db):
    paper_db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    text = paper_db.execute(
        "EXPLAIN ANALYZE SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS "
        "z.FUNCTION = 'Consultant'"
    )
    assert "index (FN)" in text
    assert "index.probes" in text


def test_explain_analyze_join_counts_lookups():
    db = make_1nf_join_db()
    db.create_index("PDNO", "PROJECTS-1NF", ("DNO",))
    text = db.execute(
        "EXPLAIN ANALYZE SELECT d.DNO FROM d IN DEPARTMENTS-1NF, "
        "p IN PROJECTS-1NF WHERE p.DNO = d.DNO"
    )
    assert "index nested loops (PDNO)" in text
    assert "join lookups: 3" in text
    assert "index.btree_node_visits" in text


def test_explain_analyze_restores_observability_state(paper_db):
    from repro import obs

    assert not obs.METRICS.enabled and not obs.TRACER.enabled
    paper_db.execute("EXPLAIN ANALYZE SELECT x.DNO FROM x IN DEPARTMENTS")
    assert not obs.METRICS.enabled and not obs.TRACER.enabled
    # counters stop moving once the analyzed run is over
    after = obs.METRICS.totals()
    paper_db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    assert obs.METRICS.totals() == after
    obs.METRICS.clear()


# ---------------------------------------------------------------------------
# DML plans its rows through the same access-path decision as SELECT
# ---------------------------------------------------------------------------


def test_explain_dml_index_access(paper_db):
    paper_db.create_index("DN", "DEPARTMENTS", "DNO")
    plan = paper_db.explain(
        "UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 314"
    )
    assert "statement: UpdateStatement" in plan
    assert "loop 1: x IN DEPARTMENTS" in plan
    assert "access: index (DN) -> 1 candidate object(s)" in plan


def test_explain_dml_full_scan_reason(paper_db):
    paper_db.create_index("DN", "DEPARTMENTS", "DNO")
    plan = paper_db.explain(
        "DELETE FROM DEPARTMENTS x WHERE x.DNO = 314 OR x.DNO = 417"
    )
    assert "access: full scan (WHERE not index-coverable)" in plan


def test_explain_partial_dml_plans_every_range(paper_db):
    paper_db.create_index("DN", "DEPARTMENTS", "DNO")
    plan = paper_db.execute(
        "EXPLAIN DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, "
        "z IN y.MEMBERS WHERE x.DNO = 218 AND z.FUNCTION = 'Consultant'"
    )
    assert plan.count("access:") == 3
    assert "access: index (DN) -> 1 candidate object(s)" in plan
    assert "nested scan of y.MEMBERS" in plan


def test_dml_publishes_last_plan_and_counts_plans(paper_db):
    from repro.obs import METRICS

    paper_db.create_index("DN", "DEPARTMENTS", "DNO")
    METRICS.clear()
    METRICS.enable()
    try:
        paper_db.execute("UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 314")
        assert paper_db.last_plan.used_indexes == ["DN"]
        paper_db.execute("DELETE FROM DEPARTMENTS x WHERE x.MGRNO = 1")
        assert paper_db.last_plan is None
        assert METRICS.counter("query.index_plans").total == 1
        assert METRICS.counter("query.scan_plans").total == 1
    finally:
        METRICS.disable()
        METRICS.clear()


def test_explain_analyze_dml_reports_candidates(paper_db):
    paper_db.create_index("DN", "DEPARTMENTS", "DNO")
    text = paper_db.execute(
        "EXPLAIN ANALYZE UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 314"
    )
    assert "access: index (DN) -> 1 candidate object(s)" in text
    assert "result: 1" in text
    assert "actual candidates: 1" in text
