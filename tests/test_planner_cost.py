"""Regression tests for cost-based access-path selection.

Covers the three access-path bugs fixed alongside the cost model:

* index *preference* — with a ROOT_TID and a HIERARCHICAL index on the
  same attribute path, catalog (dict) order used to decide and could
  silently lose prefix joins; the cost model prefers HIERARCHICAL at
  equal selectivity;
* CONTAINS fallback — a text index that could not narrow the pattern
  aborted the whole lookup instead of letting another text index answer;
* ``_sortable`` collapsed ``datetime.datetime`` to ``toordinal()``,
  making all timestamps of one day compare equal.

Plus the new machinery: range-probe bound inclusivity through
``_index_hits``, ascending-selectivity intersection with early exit,
ORDER BY sort elision, statistics persistence, and the Section 4.2
workload plans at 48 departments.
"""

import datetime
import json

import pytest

from repro import obs
from repro.database import Database
from repro.datasets import DepartmentsGenerator, paper
from repro.index.addresses import AddressingMode, address_root
from repro.index.manager import IndexDefinition, NF2Index
from repro.obs import METRICS
from repro.query.executor import _sortable
from repro.query.planner import IndexCondition, _index_hits


def make_departments_db():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    return db


# ---------------------------------------------------------------------------
# bug (a): index preference must not depend on catalog order
# ---------------------------------------------------------------------------


PREFIX_JOIN_SQL = (
    "SELECT x.DNO FROM x IN DEPARTMENTS "
    "WHERE EXISTS y IN x.PROJECTS "
    "(y.PNO = 17 AND EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant')"
)


def make_shadowed_db():
    """ROOT_TID indexes registered *before* HIERARCHICAL ones on the same
    paths — the catalog order that used to shadow the better indexes."""
    db = make_departments_db()
    db.create_index(
        "FN_ROOT", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION",
        mode=AddressingMode.ROOT_TID,
    )
    db.create_index(
        "PN_ROOT", "DEPARTMENTS", "PROJECTS.PNO",
        mode=AddressingMode.ROOT_TID,
    )
    db.create_index("FN_HIER", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    db.create_index("PN_HIER", "DEPARTMENTS", "PROJECTS.PNO")
    return db


def test_hierarchical_preferred_over_root_tid_on_same_path():
    db = make_shadowed_db()
    result = db.query(PREFIX_JOIN_SQL)
    assert result.column("DNO") == [314]
    plan = db.last_plan
    assert plan is not None
    # the cost model picked the hierarchical twins, not the first-created
    # ROOT_TID indexes — so the prefix join stayed available
    assert set(plan.used_indexes) == {"FN_HIER", "PN_HIER"}
    assert plan.prefix_joins == 1


def test_prefix_join_prunes_cross_project_false_positive():
    db = make_shadowed_db()
    # dept 314 has PNO 23 and a consultant — but in *different* projects:
    # the prefix join (hierarchical addresses) rejects it on index
    # information alone, while ROOT_TID intersection would fetch it.
    sql = (
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS "
        "(y.PNO = 23 AND EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant')"
    )
    assert len(db.query(sql)) == 0
    assert db.last_plan.actual_candidates == 0


# ---------------------------------------------------------------------------
# bug (b): CONTAINS must try the next text index, not abort
# ---------------------------------------------------------------------------


def make_reports_db():
    db = Database()
    db.create_table(paper.REPORTS_SCHEMA)
    db.insert_many("REPORTS", paper.REPORTS_ROWS)
    return db


def test_contains_falls_through_to_narrowing_text_index():
    db = make_reports_db()
    # the long-fragment index is registered first; '*consist*' has no
    # 8-char literal run, so it cannot narrow the pattern
    db.create_text_index("TX_LONG", "REPORTS", "TITLE", fragment_length=8)
    db.create_text_index("TX3", "REPORTS", "TITLE", fragment_length=3)
    result = db.query(
        "SELECT x.REPNO FROM x IN REPORTS WHERE x.TITLE CONTAINS '*consist*'"
    )
    assert result.column("REPNO") == ["0179"]
    plan = db.last_plan
    assert plan is not None and plan.used_indexes == ["TX3"]


# ---------------------------------------------------------------------------
# bug (c): _sortable must keep a timestamp's time of day
# ---------------------------------------------------------------------------


def test_sortable_keeps_time_of_day():
    morning = datetime.datetime(2020, 1, 1, 9, 0, 0)
    evening = datetime.datetime(2020, 1, 1, 18, 30, 0)
    assert _sortable(morning) != _sortable(evening)
    assert _sortable(morning) < _sortable(evening)


def test_sortable_timestamp_order_is_total():
    stamps = [
        datetime.datetime(2020, 1, 2, 0, 0, 0),
        datetime.datetime(2020, 1, 1, 23, 59, 59, 999999),
        datetime.datetime(2020, 1, 1, 0, 0, 1),
        datetime.datetime(2020, 1, 1, 0, 0, 0),
    ]
    assert sorted(stamps, key=_sortable) == sorted(stamps)


def test_sortable_date_sorts_as_midnight():
    day = datetime.date(2020, 1, 1)
    assert _sortable(day) == _sortable(datetime.datetime(2020, 1, 1, 0, 0))
    assert _sortable(day) < _sortable(datetime.datetime(2020, 1, 1, 0, 0, 1))
    assert _sortable(datetime.date(2019, 12, 31)) < _sortable(day)


# ---------------------------------------------------------------------------
# range-probe bound inclusivity (through _index_hits)
# ---------------------------------------------------------------------------


def _flat_range_values(db, op, bound):
    entry = db.catalog.table("T")
    index = entry.indexes["IA"]
    condition = IndexCondition(("A",), (), "range", (op, bound))
    return sorted(
        entry.store.fetch(tid)["A"] for tid in _index_hits(index, condition)
    )


@pytest.mark.parametrize(
    "op,expected",
    [
        ("<", [1, 2]),
        ("<=", [1, 2, 3]),
        (">", [4, 5]),
        (">=", [3, 4, 5]),
    ],
)
def test_flat_index_range_bounds(op, expected):
    db = Database()
    db.create_table("CREATE TABLE T (A INT)")
    db.insert_many("T", ({"A": value} for value in [3, 1, 5, 2, 4]))
    db.create_index("IA", "T", "A")
    assert _flat_range_values(db, op, 3) == expected


@pytest.mark.parametrize(
    "op,bound,expected",
    [
        ("<", 360_000, [320_000]),
        ("<=", 360_000, [320_000, 360_000]),
        (">", 360_000, [440_000]),
        (">=", 360_000, [360_000, 440_000]),
    ],
)
def test_nf2_index_range_bounds(op, bound, expected):
    db = make_departments_db()
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    entry = db.catalog.table("DEPARTMENTS")
    index = entry.indexes["BUD"]
    condition = IndexCondition(("BUDGET",), (), "range", (op, bound))
    budgets = sorted(
        entry.store.fetch(address_root(address))["BUDGET"]
        for address in _index_hits(index, condition)
    )
    assert budgets == expected


def test_mirrored_range_operand_through_query():
    db = make_departments_db()
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE 360000 > x.BUDGET"
    )
    assert result.column("DNO") == [314]
    assert db.last_plan is not None and db.last_plan.used_indexes == ["BUD"]
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE 360000 <= x.BUDGET"
    )
    assert sorted(result.column("DNO")) == [218, 417]


# ---------------------------------------------------------------------------
# ascending-selectivity intersection + early exit
# ---------------------------------------------------------------------------


def test_most_selective_index_probes_first():
    db = make_departments_db()
    # BUD: 3 entries / 3 keys -> eq estimate 1.0
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    # FN: 9 member FUNCTION entries over few distinct values -> larger
    db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE x.BUDGET = 320000 AND EXISTS y IN x.PROJECTS "
        "EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant'"
    )
    plan = db.last_plan
    assert plan is not None
    assert plan.used_indexes == ["BUD", "FN"]  # selectivity order
    fn_stats = db.catalog.table("DEPARTMENTS").indexes["FN"].stats
    bud_stats = db.catalog.table("DEPARTMENTS").indexes["BUD"].stats
    assert bud_stats.estimate_eq() < fn_stats.estimate_eq()
    assert plan.estimated_candidates == bud_stats.estimate_eq()


def test_early_exit_skips_remaining_index_probes():
    db = make_departments_db()
    db.create_index("A_BUD", "DEPARTMENTS", "BUDGET")
    db.create_index("B_MGR", "DEPARTMENTS", "MGRNO")
    METRICS.clear()  # the registry is process-global
    with obs.profiled(tracing=False):
        db.query(
            "SELECT x.DNO FROM x IN DEPARTMENTS "
            "WHERE x.BUDGET = 999 AND x.MGRNO = 56194"
        )
        probes = METRICS.counter("index.probes")
        assert probes.value(index="A_BUD") == 1
        assert probes.value(index="B_MGR") == 0  # never touched
        assert METRICS.counter("planner.early_exits").total == 1
    METRICS.clear()
    plan = db.last_plan
    assert plan is not None
    assert plan.early_exit is True
    assert plan.actual_candidates == 0


def test_intersection_reports_actual_candidates():
    db = make_departments_db()
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET = 440000"
    )
    assert result.column("DNO") == [218]
    plan = db.last_plan
    assert plan is not None
    assert plan.actual_candidates == 1
    assert plan.early_exit is False


# ---------------------------------------------------------------------------
# the Section 4.2 workload at 48 departments
# ---------------------------------------------------------------------------


SECTION42_QUERIES = {
    # conjunction anchored in one project: the prefix-join query
    "prefix_join": (
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS "
        "(y.PNO = 12 AND EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant')"
    ),
    # a zero-hit equality, written after the broad one, kills the
    # intersection before the FUNCTION index is probed
    "early_exit": (
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS "
        "z.FUNCTION = 'Consultant' AND x.BUDGET = 1"
    ),
    "point": "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 101",
}


def make_section42_db():
    """48 generated departments; ROOT_TID indexes registered *before*
    their HIERARCHICAL twins, plus BUDGET and DNO indexes."""
    db = Database(buffer_capacity=2048)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    workload = DepartmentsGenerator(
        departments=48, projects_per_department=3, members_per_project=4,
        consultant_share=0.08, seed=77,
    )
    db.insert_many("DEPARTMENTS", workload.rows())
    db.create_index(
        "PN_ROOT", "DEPARTMENTS", "PROJECTS.PNO",
        mode=AddressingMode.ROOT_TID,
    )
    db.create_index(
        "FN_ROOT", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION",
        mode=AddressingMode.ROOT_TID,
    )
    db.create_index("PN_HIER", "DEPARTMENTS", "PROJECTS.PNO")
    db.create_index("FN_HIER", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    db.create_index("DN", "DEPARTMENTS", "DNO")
    return db


def test_section42_workload_plans():
    db = make_section42_db()
    plans = {}
    METRICS.clear()  # the registry is process-global
    with obs.profiled(tracing=False):
        for name, sql in SECTION42_QUERIES.items():
            before = METRICS.counter("index.probes").total
            rows = db.query(sql).column("DNO")
            plan = db.last_plan
            # an index answer exists for every query: a scan is a regression
            assert plan is not None and plan.used_any, name
            probes = METRICS.counter("index.probes").total - before
            plans[name] = (plan, rows, probes)
    METRICS.clear()

    plan, rows, _ = plans["prefix_join"]
    assert plan.actual_candidates == 7
    assert set(plan.used_indexes) == {"PN_HIER", "FN_HIER"}
    assert plan.prefix_joins == 1
    assert plan.actual_candidates == len(rows)

    plan, rows, probes = plans["early_exit"]
    assert plan.actual_candidates == 0 and rows == []
    assert plan.early_exit is True
    assert probes == 1

    plan, rows, _ = plans["point"]
    assert plan.actual_candidates == 1 and rows == [101]


# ---------------------------------------------------------------------------
# ORDER BY sort elision
# ---------------------------------------------------------------------------


ORDERED_SQL = (
    "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 0 "
    "ORDER BY x.BUDGET"
)


def test_order_by_elided_on_matching_index():
    db = make_departments_db()
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    METRICS.clear()  # the registry is process-global
    with obs.profiled(tracing=False):
        result = db.query(ORDERED_SQL)
        assert METRICS.counter("query.sorts_elided").total == 1
    METRICS.clear()
    assert result.column("DNO") == [314, 417, 218]  # ascending budgets
    plan = db.last_plan
    assert plan is not None and plan.sort_elided is True


def test_order_by_elision_matches_full_sort():
    db = make_departments_db()
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    elided = db.query(ORDERED_SQL)
    db.use_access_paths = False
    sorted_ = db.query(ORDERED_SQL)
    db.use_access_paths = True
    assert elided.column("DNO") == sorted_.column("DNO")


@pytest.mark.parametrize(
    "sql",
    [
        # descending: the index streams ascending
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 0 "
        "ORDER BY x.BUDGET DESC",
        # multi-key: a second key needs a real sort
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 0 "
        "ORDER BY x.BUDGET, x.DNO",
        # ORDER BY a different attribute than the chosen index
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 0 "
        "ORDER BY x.DNO",
    ],
)
def test_order_by_not_elided(sql):
    db = make_departments_db()
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    result = db.query(sql)
    plan = db.last_plan
    assert plan is not None and plan.sort_elided is False
    db.use_access_paths = False
    assert result.column("DNO") == db.query(sql).column("DNO")


def test_order_by_not_elided_under_multi_index_plan():
    db = make_departments_db()
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    db.create_index("MGR", "DEPARTMENTS", "MGRNO")
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE x.BUDGET > 0 AND x.MGRNO > 0 ORDER BY x.BUDGET"
    )
    assert result.column("DNO") == [314, 417, 218]
    plan = db.last_plan
    assert plan is not None and plan.sort_elided is False


# ---------------------------------------------------------------------------
# statistics: maintenance and persistence
# ---------------------------------------------------------------------------


def test_stats_track_inserts_and_deletes():
    db = make_departments_db()
    db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    stats = db.catalog.table("DEPARTMENTS").indexes["FN"].stats
    assert stats.entry_count == 17  # one per project member occurrence
    assert stats.distinct_keys == 4  # the four FUNCTION values
    tid = db.tids("DEPARTMENTS")[0]
    db.delete("DEPARTMENTS", tid)
    after = db.catalog.table("DEPARTMENTS").indexes["FN"].stats
    assert after.entry_count < 17


def test_stats_persisted_in_catalog_sidecar(tmp_path):
    path = str(tmp_path / "stats.db")
    with Database(path=path) as db:
        db.create_table(paper.DEPARTMENTS_SCHEMA)
        db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
        db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
        db.save()
        expected = db.catalog.table("DEPARTMENTS").indexes["FN"].stats

    with open(path + ".catalog.json") as handle:
        state = json.load(handle)
    (table_state,) = state["tables"]
    (index_state,) = table_state["indexes"]
    assert index_state["stats"] == expected.snapshot()

    with Database(path=path) as again:
        rebuilt = again.catalog.table("DEPARTMENTS").indexes["FN"].stats
        assert rebuilt.entry_count == expected.entry_count
        assert rebuilt.distinct_keys == expected.distinct_keys


def test_catalog_entry_index_stats_helper():
    db = make_departments_db()
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    db.create_table(paper.REPORTS_SCHEMA)
    db.insert_many("REPORTS", paper.REPORTS_ROWS)
    db.create_text_index("TX", "REPORTS", "TITLE")
    stats = db.catalog.table("DEPARTMENTS").index_stats()
    assert stats["BUD"].entry_count == 3
    text_stats = db.catalog.table("REPORTS").index_stats()
    assert text_stats["TX"].entry_count == 3  # one TITLE per report
    assert text_stats["TX"].distinct_keys > 0  # fragments


# ---------------------------------------------------------------------------
# streaming: candidates flow without full materialization
# ---------------------------------------------------------------------------


def test_candidate_stream_is_lazy():
    db = make_departments_db()
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    query = "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 0"
    from repro.query.parser import parse_query

    iterator = db.iterate_table_for_query(
        "DEPARTMENTS", None, parse_query(query), "x"
    )
    first = next(iterator)  # plan + first fetch happen here
    assert first["DNO"] in (314, 218, 417)
    plan = db.last_plan
    assert plan is not None
    # only what has streamed so far is counted
    assert plan.actual_candidates <= 3
    rest = list(iterator)
    assert plan.actual_candidates == 3
    assert len(rest) == 2


def test_explain_surfaces_cost_model(paper_db):
    paper_db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    paper_db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    plan = paper_db.explain(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE x.BUDGET = 320000 AND EXISTS y IN x.PROJECTS "
        "EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant'"
    )
    assert "index (BUD, FN)" in plan
    assert "cost model: estimated" in plan
    assert "ascending-selectivity order" in plan


def test_explain_analyze_reports_planner_block(paper_db):
    paper_db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    text = paper_db.execute(
        "EXPLAIN ANALYZE SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE x.BUDGET > 0 ORDER BY x.BUDGET"
    )
    assert "planner (analyzed):" in text
    assert "indexes (selectivity order): BUD" in text
    assert "estimated candidates:" in text
    assert "actual candidates: 3" in text
    assert "sort elided: yes" in text
    assert "query.sorts_elided" in text
