"""Tests for the Database facade: DDL/DML statements, index maintenance,
planner integration, versioned tables + ASOF, and error paths."""

import datetime

import pytest

from repro.database import Database
from repro.datasets import paper
from repro.errors import (
    AccessPathError,
    BindError,
    DataError,
    DuplicateTableError,
    ExecutionError,
    QueryError,
    TemporalError,
    UnknownIndexError,
    UnknownTableError,
)
from repro.index.addresses import AddressingMode
from repro.model.values import TableValue


def test_ddl_through_execute():
    db = Database()
    schema = db.execute(
        "CREATE TABLE T (A INT, S TABLE OF (B INT), C STRING)"
    )
    assert schema.name == "T"
    assert db.table_schema("T").attribute("S").is_table
    db.execute("DROP TABLE T")
    with pytest.raises(UnknownTableError):
        db.table_schema("T")


def test_duplicate_table_rejected():
    db = Database()
    db.execute("CREATE TABLE T (A INT)")
    with pytest.raises(DuplicateTableError):
        db.execute("CREATE TABLE T (A INT)")


def test_insert_statement_nested_literals():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    count = db.execute(
        "INSERT INTO DEPARTMENTS VALUES "
        "(99, 1, {(5, 'P5', {(7, 'Leader')})}, 1000, {(1, 'PC'), (2, '3278')})"
    )
    assert count == 1
    result = db.query("SELECT * FROM x IN DEPARTMENTS")
    assert result[0]["PROJECTS"][0]["MEMBERS"][0]["EMPNO"] == 7
    assert len(result[0]["EQUIP"]) == 2


def test_insert_statement_bracket_kind_checked():
    db = Database()
    db.create_table(paper.REPORTS_SCHEMA)
    with pytest.raises(DataError):
        # AUTHORS is a list: '{...}' is the wrong bracket
        db.execute("INSERT INTO REPORTS VALUES ('1', {('X')}, 'T', {})")
    db.execute("INSERT INTO REPORTS VALUES ('1', <('X')>, 'T', {})")
    assert len(db.table_value("REPORTS")) == 1


def test_insert_statement_arity_checked():
    db = Database()
    db.execute("CREATE TABLE T (A INT, B INT)")
    with pytest.raises(DataError):
        db.execute("INSERT INTO T VALUES (1)")


def test_update_statement(paper_db):
    count = paper_db.execute(
        "UPDATE DEPARTMENTS x SET BUDGET = 111111 WHERE x.DNO = 314"
    )
    assert count == 1
    result = paper_db.query(
        "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314"
    )
    assert result.column("BUDGET") == [111111]
    # other departments untouched
    rest = paper_db.query(
        "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 218"
    )
    assert rest.column("BUDGET") == [440000]


def test_update_statement_rejects_subtable_assignment(paper_db):
    with pytest.raises(ExecutionError):
        paper_db.execute("UPDATE DEPARTMENTS x SET PROJECTS = 1 WHERE x.DNO = 314")


def test_delete_statement(paper_db):
    count = paper_db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 218")
    assert count == 1
    remaining = paper_db.query("SELECT x.DNO FROM x IN DEPARTMENTS")
    assert sorted(remaining.column("DNO")) == [314, 417]
    # delete everything
    assert paper_db.execute("DELETE FROM DEPARTMENTS") == 2
    assert len(paper_db.table_value("DEPARTMENTS")) == 0


def test_update_flat_table(paper_db):
    count = paper_db.execute(
        "UPDATE EMPLOYEES-1NF e SET LNAME = 'Renamed' WHERE e.EMPNO = 39582"
    )
    assert count == 1
    result = paper_db.query(
        "SELECT e.LNAME FROM e IN EMPLOYEES-1NF WHERE e.EMPNO = 39582"
    )
    assert result.column("LNAME") == ["Renamed"]


def test_query_requires_select(paper_db):
    with pytest.raises(QueryError):
        paper_db.query("DELETE FROM DEPARTMENTS")


def test_programmatic_partial_update_with_index_maintenance(paper_db):
    paper_db.create_index(
        "FN", "DEPARTMENTS", ("PROJECTS", "MEMBERS", "FUNCTION")
    )
    (tid_314,) = [
        t
        for t in paper_db.tids("DEPARTMENTS")
        if paper_db.open_object("DEPARTMENTS", t).read_atoms(
            paper_db.table_schema("DEPARTMENTS"),
            paper_db.open_object("DEPARTMENTS", t).decoded,
        )["DNO"]
        == 314
    ]
    # promote member 56019 from Consultant to Leader through the callable API
    paper_db.update(
        "DEPARTMENTS",
        tid_314,
        lambda obj: obj.update_atoms(
            [("PROJECTS", 0), ("MEMBERS", 1)], {"FUNCTION": "Leader"}
        ),
    )
    index = paper_db.catalog.index("FN")
    assert len(index.search("Consultant")) == 2  # only dept 218's remain


def test_index_maintenance_on_insert_and_delete():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    tids = db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    index = db.catalog.index("FN")
    assert len(index.search("Consultant")) == 3
    db.delete("DEPARTMENTS", tids[1])  # dept 218
    assert len(index.search("Consultant")) == 1


def test_create_index_through_sql(paper_db):
    paper_db.execute("CREATE INDEX FN ON DEPARTMENTS (PROJECTS.MEMBERS.FUNCTION)")
    paper_db.execute("CREATE TEXT INDEX TX ON REPORTS (TITLE)")
    assert paper_db.catalog.index("FN") is not None
    paper_db.execute("DROP INDEX FN")
    with pytest.raises(UnknownIndexError):
        paper_db.catalog.index("FN")


def test_planner_uses_hierarchical_index(paper_db):
    paper_db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    result = paper_db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS "
        "z.FUNCTION = 'Consultant'"
    )
    assert sorted(result.column("DNO")) == [218, 314]
    assert paper_db.last_plan is not None
    assert paper_db.last_plan.used_indexes == ["FN"]


def test_planner_prefix_join(paper_db):
    paper_db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    paper_db.create_index("PN", "DEPARTMENTS", "PROJECTS.PNO")
    result = paper_db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS "
        "(y.PNO = 25 AND EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant')"
    )
    assert result.column("DNO") == [218]
    assert paper_db.last_plan.prefix_joins == 1
    # PNO=23 (project HEAR) has no consultant: prefix join empties the set
    empty = paper_db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS "
        "(y.PNO = 23 AND EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant')"
    )
    assert len(empty) == 0


def test_planner_disabled_gives_same_answers(paper_db):
    paper_db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    query = (
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS "
        "z.FUNCTION = 'Consultant'"
    )
    with_index = paper_db.query(query)
    paper_db.use_access_paths = False
    without = paper_db.query(query)
    assert with_index == without


def test_planner_flat_index(paper_db):
    paper_db.create_index("EMP", "EMPLOYEES-1NF", ("EMPNO",))
    result = paper_db.query(
        "SELECT e.LNAME FROM e IN EMPLOYEES-1NF WHERE e.EMPNO = 39582"
    )
    assert result.column("LNAME") == ["Krueger"]
    assert paper_db.last_plan.used_indexes == ["EMP"]


def test_data_tid_index_never_planned(paper_db):
    paper_db.create_index(
        "FN_DATA",
        "DEPARTMENTS",
        "PROJECTS.MEMBERS.FUNCTION",
        mode=AddressingMode.DATA_TID,
    )
    result = paper_db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS "
        "z.FUNCTION = 'Consultant'"
    )
    assert sorted(result.column("DNO")) == [218, 314]
    assert paper_db.last_plan is None  # fell back to a scan — Section 4.2


def test_bind_errors_surface(paper_db):
    with pytest.raises(BindError):
        paper_db.query("SELECT x.NOPE FROM x IN DEPARTMENTS")
    with pytest.raises(BindError):
        paper_db.query("SELECT y.DNO FROM x IN DEPARTMENTS")
    with pytest.raises(BindError):
        paper_db.query("SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 'abc'")
    with pytest.raises(BindError):
        paper_db.query("SELECT * FROM x IN DEPARTMENTS, y IN x.PROJECTS")
    with pytest.raises(BindError):
        paper_db.query(
            "SELECT x.DNO, x.DNO FROM x IN DEPARTMENTS"
        )


# -- versioned tables -------------------------------------------------------------


def make_versioned_db():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA, versioned=True)
    return db


def test_versioned_insert_update_asof():
    db = make_versioned_db()
    tid = db.insert(
        "DEPARTMENTS", paper.DEPARTMENTS_ROWS[0], at=datetime.date(1984, 1, 1)
    )
    db.update(
        "DEPARTMENTS",
        tid,
        {"BUDGET": 500_000},
        at=datetime.date(1984, 2, 1),
    )
    old = db.query(
        "SELECT x.BUDGET FROM x IN DEPARTMENTS ASOF '1984-01-15'"
    )
    assert old.column("BUDGET") == [320_000]
    new = db.query("SELECT x.BUDGET FROM x IN DEPARTMENTS")
    assert new.column("BUDGET") == [500_000]


def test_paper_asof_projects_query():
    """Section 5's example: the projects department 314 had on Jan 15, 1984."""
    db = make_versioned_db()
    tid = db.insert(
        "DEPARTMENTS", paper.DEPARTMENTS_ROWS[0], at=datetime.date(1984, 1, 1)
    )
    # later, project 23 is cancelled
    db.update(
        "DEPARTMENTS",
        tid,
        lambda obj: obj.delete_element([], "PROJECTS", 1),
        at=datetime.date(1984, 3, 1),
    )
    asof = db.query(
        "SELECT y.PNO, y.PNAME "
        "FROM x IN DEPARTMENTS ASOF '1984-01-15', y IN x.PROJECTS "
        "WHERE x.DNO = 314"
    )
    assert sorted(asof.column("PNO")) == [17, 23]
    now = db.query(
        "SELECT y.PNO FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE x.DNO = 314"
    )
    assert now.column("PNO") == [17]


def test_versioned_delete_keeps_history():
    db = make_versioned_db()
    tid = db.insert("DEPARTMENTS", paper.DEPARTMENTS_ROWS[0], at=10)
    db.delete("DEPARTMENTS", tid, at=20)
    assert len(db.table_value("DEPARTMENTS")) == 0
    # before the insert: empty ('0001-01-05' = axis point 5 < 10)
    assert db.query("SELECT x.DNO FROM x IN DEPARTMENTS ASOF '0001-01-05'").rows == []
    # during the object's lifetime: visible
    asof_alive = db.query("SELECT x.DNO FROM x IN DEPARTMENTS ASOF '0001-01-15'")
    assert asof_alive.column("DNO") == [314]
    entry = db.catalog.table("DEPARTMENTS")
    assert entry.version_store.roots_asof(15) == [tid]
    # the historical bytes are still readable
    old = entry.store.fetch(tid)
    assert old["DNO"] == 314


def test_asof_on_unversioned_table_rejected(paper_db):
    with pytest.raises((BindError, TemporalError)):
        paper_db.query("SELECT x.DNO FROM x IN DEPARTMENTS ASOF '1984-01-15'")


def test_render(paper_db):
    text = paper_db.render("DEPARTMENTS")
    assert "{ DEPARTMENTS }" in text
    assert "Consultant" in text


def test_context_manager(tmp_path):
    path = str(tmp_path / "db.pages")
    with Database(path=path) as db:
        db.execute("CREATE TABLE T (A INT)")
        db.execute("INSERT INTO T VALUES (7)")
        assert db.query("SELECT t.A FROM t IN T").column("A") == [7]
    import os

    assert os.path.getsize(path) > 0
