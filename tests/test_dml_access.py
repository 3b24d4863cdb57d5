"""DML row selection through the planner.

Root ``UPDATE``/``DELETE`` and partial DML (``INSERT INTO y.MEMBERS FROM
...``, ``UPDATE z FROM ...``, ``DELETE z FROM ...``) find their rows through
the access-path decision ``SELECT`` uses.  Twin databases, one with
``use_access_paths`` on and one with it off, must agree on every statement
shape — the same return count, the same final table contents in the same
order, and a clean ``verify()`` — plain, under a 2PL session and under an
MVCC session.  A keyed write opens only the object it names.
"""

import pytest

from repro.database import Database
from repro.datasets import DepartmentsGenerator, paper
from repro.obs import METRICS
from repro.query import ast
from repro.query.parser import parse_statement

from tests.model.reference import reference_matches

TABLES = ("DEPARTMENTS", "FLAGS", "EMP", "DOCS")

#: a department with a NULL budget, for IS NULL
NULL_BUDGET = {"DNO": 500, "MGRNO": 1, "BUDGET": None, "PROJECTS": [], "EQUIP": []}


def build(access_paths: bool, mvcc: bool) -> Database:
    db = Database(mvcc=mvcc)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS + [NULL_BUDGET])
    db.create_index("DN", "DEPARTMENTS", "DNO")
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    db.create_index("PN", "DEPARTMENTS", "PROJECTS.PNO")
    db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    db.create_text_index("PNAME_TX", "DEPARTMENTS", "PROJECTS.PNAME")
    db.execute("CREATE TABLE FLAGS (ID INT, OK BOOL, TAGS TABLE OF (K INT, V STRING))")
    db.execute(
        "INSERT INTO FLAGS VALUES (1, TRUE, {(1, 'a')}), (2, FALSE, {}), "
        "(3, TRUE, {(1, 'b'), (2, 'c')})"
    )
    db.create_index("F_ID", "FLAGS", "ID")
    db.create_index("F_OK", "FLAGS", "OK")
    db.execute("CREATE TABLE EMP (ID INT, OK BOOL, NAME STRING)")
    db.execute("INSERT INTO EMP VALUES (1, TRUE, 'a'), (2, FALSE, 'b'), (3, TRUE, 'c')")
    db.create_index("E_ID", "EMP", "ID")
    db.execute("CREATE TABLE DOCS (ID INT, AUTHORS LIST OF (NAME STRING))")
    db.execute("INSERT INTO DOCS VALUES (1, <('Jones'), ('Adams')>), (2, <('Chen')>)")
    db.insert("DOCS", {"ID": 3, "AUTHORS": []})
    db.create_index("D_ID", "DOCS", "ID")
    db.use_access_paths = access_paths
    return db


def shape(sql: str, indexed: bool, name: str):
    return pytest.param(sql, indexed, id=name)


STATEMENTS = [
    # root UPDATE / DELETE
    shape("UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 314", True, "eq"),
    shape(
        "UPDATE DEPARTMENTS x SET MGRNO = 7 WHERE x.BUDGET >= 360000",
        True,
        "range-multi-row",
    ),
    shape(
        "DELETE FROM DEPARTMENTS x WHERE x.DNO = 314 OR x.DNO = 417",
        False,
        "or-scanned",
    ),
    shape(
        "UPDATE DEPARTMENTS x SET BUDGET = 2 "
        "WHERE EXISTS y IN x.PROJECTS y.PNAME CONTAINS '*EAR*'",
        True,
        "contains",
    ),
    shape(
        "UPDATE DEPARTMENTS x SET BUDGET = 3 WHERE x.BUDGET IS NULL",
        False,
        "is-null",
    ),
    shape("DELETE FROM FLAGS f WHERE f.ID = TRUE", True, "bool-literal-on-int"),
    shape("UPDATE FLAGS f SET ID = 9 WHERE f.OK = TRUE", True, "bool-literal"),
    shape("DELETE FROM DEPARTMENTS x WHERE x.BUDGET > 0", True, "all-rows"),
    shape("UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 999", True, "zero-row"),
    shape(
        "DELETE FROM DEPARTMENTS x WHERE EXISTS y IN x.PROJECTS "
        "(y.PNO = 25 AND EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant')",
        True,
        "hierarchical-exists",
    ),
    shape(
        "UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 'abc'",
        False,
        "incomparable-literal",
    ),
    shape("UPDATE EMP e SET NAME = 'z' WHERE e.ID = 2", True, "flat-eq"),
    shape("DELETE FROM EMP e WHERE e.ID >= 2", True, "flat-range"),
    shape(
        "UPDATE DEPARTMENTS x SET BUDGET = 5 "
        "WHERE x.BUDGET >= 300000 AND ALL v IN x.EQUIP v.QU < 3",
        True,
        "all-quantifier",
    ),
    shape("DELETE FROM DOCS d WHERE d.AUTHORS[2].NAME = 'Adams'", False, "subscript"),
    shape(
        "UPDATE DEPARTMENTS x SET MGRNO = 8 WHERE SUM(x.EQUIP.QU) > 7",
        False,
        "aggregate",
    ),
    shape(
        "UPDATE DEPARTMENTS x SET BUDGET = 4 "
        "WHERE NOT (x.DNO = 314 OR x.BUDGET IS NULL)",
        False,
        "not-or",
    ),
    shape(
        "DELETE FROM DEPARTMENTS x "
        "WHERE COUNT((SELECT y.PNO FROM y IN x.PROJECTS WHERE y.PNO > 20)) > 0",
        False,
        "count-subquery",
    ),
    # partial DML (the shapes of tests/test_partial_dml.py)
    shape(
        "INSERT INTO y.MEMBERS FROM x IN DEPARTMENTS, y IN x.PROJECTS "
        "WHERE x.DNO = 314 AND y.PNO = 17 VALUES (77001, 'Staff'), (77002, 'Staff')",
        True,
        "sub-insert-members",
    ),
    shape(
        "INSERT INTO x.EQUIP FROM x IN DEPARTMENTS WHERE x.DNO = 417 "
        "VALUES (9, '3290')",
        True,
        "sub-insert-top-level",
    ),
    shape(
        "INSERT INTO x.PROJECTS FROM x IN DEPARTMENTS WHERE x.DNO = 218 "
        "VALUES (31, 'DOCS', {(88001, 'Leader'), (88002, 'Staff')})",
        True,
        "sub-insert-nested-literal",
    ),
    shape(
        "UPDATE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS "
        "SET FUNCTION = 'Adviser' WHERE z.EMPNO = 56019",
        False,
        "sub-update-member",
    ),
    shape(
        "UPDATE y FROM x IN DEPARTMENTS, y IN x.PROJECTS "
        "SET PNO = x.DNO WHERE y.PNO = 37",
        False,
        "sub-update-outer-expression",
    ),
    shape(
        "DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS "
        "WHERE z.FUNCTION = 'Staff'",
        False,
        "sub-delete-all-staff",
    ),
    shape(
        "DELETE y FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE x.DNO = 314",
        True,
        "sub-delete-projects",
    ),
    shape(
        "DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS "
        "WHERE x.DNO = 218 AND z.FUNCTION = 'Consultant'",
        True,
        "sub-delete-positions",
    ),
    shape("DELETE x FROM x IN DEPARTMENTS WHERE x.DNO = 218", True, "sub-delete-whole"),
    shape(
        "UPDATE y FROM x IN DEPARTMENTS, y IN x.PROJECTS SET PNAME = 'X' "
        "WHERE EXISTS v IN x.EQUIP v.TYPE = 'PC/GA' AND x.BUDGET < 400000",
        True,
        "sub-update-exists-range",
    ),
    shape(
        "UPDATE x FROM x IN DEPARTMENTS, f IN FLAGS SET BUDGET = 11 "
        "WHERE x.DNO = 314 AND f.ID = 2",
        True,
        "sub-update-two-stored-ranges",
    ),
    shape(
        "DELETE t FROM f IN FLAGS, t IN f.TAGS WHERE f.OK = TRUE AND t.K = 1",
        True,
        "sub-delete-bool-literal",
    ),
    shape(
        "UPDATE a FROM d IN DOCS, a IN d.AUTHORS SET NAME = d.AUTHORS[1].NAME "
        "WHERE d.ID = 1",
        True,
        "sub-update-outer-path",
    ),
]


def run(db: Database, sql: str, mode: str):
    if mode == "plain":
        return db.execute(sql)
    session = db.session()
    try:
        return session.execute(sql)
    finally:
        session.close()


@pytest.mark.parametrize("mode", ["plain", "2pl", "mvcc"])
@pytest.mark.parametrize("sql, indexed", STATEMENTS)
def test_index_and_scan_write_the_same_rows(sql, indexed, mode):
    root = isinstance(
        parse_statement(sql), (ast.UpdateStatement, ast.DeleteStatement)
    )
    outcomes = []
    for access_paths in (True, False):
        db = build(access_paths, mvcc=mode == "mvcc")
        try:
            # a root statement affects the rows its WHERE selects
            expected = reference_matches(db, sql) if root else None
            count = run(db, sql, mode)
            if root:
                assert count == expected
            if access_paths:
                # the index twin really planned through an index
                assert (db.last_plan is not None) == indexed
            contents = {t: db.table_value(t).to_plain() for t in TABLES}
            assert db.verify() == []
        finally:
            db.close()
        outcomes.append((count, contents))
    assert outcomes[0] == outcomes[1]


def departments_64() -> Database:
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", DepartmentsGenerator(departments=64, seed=7).rows())
    db.create_index("DN", "DEPARTMENTS", "DNO")
    db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    return db


@pytest.mark.parametrize(
    "sql",
    [
        "UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 140",
        "INSERT INTO y.MEMBERS FROM x IN DEPARTMENTS, y IN x.PROJECTS "
        "WHERE x.DNO = 140 AND y.PNO = 10 VALUES (1, 'Temp')",
    ],
    ids=["root-update", "member-insert"],
)
def test_keyed_write_opens_only_its_object(sql):
    """Match (1 open), write (1) and re-index (1) — a scan opened all 64."""
    db = departments_64()
    METRICS.clear()
    METRICS.enable()
    try:
        assert db.execute(sql) == 1
        opened = METRICS.counter("storage.objects_opened").total
        index_plans = METRICS.counter("query.index_plans").total
    finally:
        METRICS.disable()
        METRICS.clear()
        db.close()
    assert opened <= 3
    assert index_plans == 1
