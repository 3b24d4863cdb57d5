"""Unit tests for the access-path planner: condition extraction, candidate
selection, prefix joins, and range scans."""

import pytest

from repro.database import Database
from repro.datasets import DepartmentsGenerator, paper
from repro.index.addresses import AddressingMode
from repro.query.parser import parse_query
from repro.query.planner import (
    IndexCondition,
    candidate_roots,
    extract_condition_groups,
)


def conditions_of(sql, var="x"):
    groups = extract_condition_groups(parse_query(sql).where, var)
    if groups is None:
        return None
    return [condition for group in groups for condition in group.conditions]


def test_extract_top_level_equality():
    conditions = conditions_of(
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314"
    )
    assert conditions == [
        IndexCondition(("DNO",), (), "eq", 314)
    ]


def test_extract_reversed_literal_side():
    conditions = conditions_of(
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE 314 = x.DNO"
    )
    assert conditions[0].value == 314 and conditions[0].kind == "eq"


def test_extract_range_conditions():
    conditions = conditions_of(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE x.BUDGET >= 100 AND 500 > x.BUDGET"
    )
    assert [c.kind for c in conditions] == ["range", "range"]
    assert conditions[0].value == (">=", 100)
    assert conditions[1].value == ("<", 500)  # mirrored


def test_extract_exists_chain():
    conditions = conditions_of(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS "
        "z.FUNCTION = 'Consultant'"
    )
    assert len(conditions) == 1
    condition = conditions[0]
    assert condition.attribute_path == ("PROJECTS", "MEMBERS", "FUNCTION")
    assert len(condition.binding) == 2
    assert condition.levels == 2


def test_extract_gives_up_on_or():
    assert conditions_of(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE x.DNO = 314 OR x.DNO = 218"
    ) is None


def test_extract_skips_unanchored_paths():
    # conditions on other variables are not conditions on x
    conditions = conditions_of(
        "SELECT x.DNO FROM x IN DEPARTMENTS, e IN EMPLOYEES-1NF "
        "WHERE e.EMPNO = 1 AND x.DNO = 2"
    )
    assert conditions == [IndexCondition(("DNO",), (), "eq", 2)]


def test_extract_null_literal_not_indexable():
    conditions = conditions_of(
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = NULL"
    )
    assert conditions == []


def test_sibling_exists_do_not_prefix_join():
    """Two separate EXISTS over the same subtable must NOT be forced into
    the same subobject."""
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.create_index("PN", "DEPARTMENTS", "PROJECTS.PNO")
    # dept 314 has projects 17 AND 23 (different projects!)
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS y.PNO = 17 "
        "AND EXISTS y IN x.PROJECTS y.PNO = 23"
    )
    assert result.column("DNO") == [314]


def test_range_scan_through_planner():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET > 330000"
    )
    assert sorted(result.column("DNO")) == [218, 417]
    assert db.last_plan is not None and db.last_plan.used_indexes == ["BUD"]
    # between-style conjunction
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE x.BUDGET >= 330000 AND x.BUDGET <= 400000"
    )
    assert result.column("DNO") == [417]


def test_range_scan_on_nested_path():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.create_index("EMP", "DEPARTMENTS", "PROJECTS.MEMBERS.EMPNO")
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS z.EMPNO < 40000"
    )
    assert result.column("DNO") == [314]  # only 39582
    assert db.last_plan.used_indexes == ["EMP"]


def test_candidates_superset_never_wrong():
    """Whatever the planner prunes, query answers equal the scan answers."""
    gen = DepartmentsGenerator(departments=25, projects_per_department=4,
                               members_per_project=5, seed=17)
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", gen.rows())
    db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    db.create_index("PN", "DEPARTMENTS", "PROJECTS.PNO")
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    queries = [
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.BUDGET >= 500000",
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS (y.PNO = 11 AND "
        "EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant')",
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE x.BUDGET > 200000 AND EXISTS y IN x.PROJECTS "
        "EXISTS z IN y.MEMBERS z.FUNCTION = 'Secretary'",
    ]
    for sql in queries:
        with_index = db.query(sql)
        db.use_access_paths = False
        without = db.query(sql)
        db.use_access_paths = True
        assert sorted(with_index.column("DNO")) == sorted(without.column("DNO"))


def test_root_tid_index_intersects_roots_only():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.create_index(
        "FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION",
        mode=AddressingMode.ROOT_TID,
    )
    db.create_index(
        "PN", "DEPARTMENTS", "PROJECTS.PNO", mode=AddressingMode.ROOT_TID,
    )
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS "
        "(y.PNO = 23 AND EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant')"
    )
    # ROOT_TID candidates include dept 314 (has PNO 23 and a consultant,
    # but in different projects); the executor's verification rejects it.
    assert len(result) == 0
    assert db.last_plan is not None
    assert db.last_plan.prefix_joins == 0  # no hierarchical info available
