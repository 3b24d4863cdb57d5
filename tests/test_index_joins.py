"""Tests for index-nested-loop joins (inner ranges answered via indexes)."""

import re

import pytest

from repro.concurrency.locks import LockMode
from repro.database import Database
from repro.datasets import DepartmentsGenerator, paper
from repro.index.addresses import AddressingMode

from tests.model.reference import reference_query


def indexed_paper_db():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.create_table(paper.EMPLOYEES_1NF_SCHEMA)
    db.insert_many(
        "EMPLOYEES-1NF", (r.to_plain() for r in paper.employees_1nf())
    )
    db.create_index("EMP", "EMPLOYEES-1NF", ("EMPNO",))
    return db

JOIN_QUERY = (
    "SELECT x.DNO, e.LNAME FROM x IN DEPARTMENTS, e IN EMPLOYEES-1NF "
    "WHERE x.MGRNO = e.EMPNO"
)


def test_join_through_flat_index_same_answer():
    db = indexed_paper_db()
    with_index = db.query(JOIN_QUERY)
    db.use_access_paths = False
    without = db.query(with_index and JOIN_QUERY)
    assert with_index == without
    assert {r["LNAME"] for r in with_index} == {"Schmidt", "Neumann", "Richter"}


def test_join_through_flat_index_reads_fewer_rows():
    gen = DepartmentsGenerator(departments=40, projects_per_department=1,
                               members_per_project=1, seed=8)
    db = Database(buffer_capacity=4096)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", gen.rows())
    db.create_table(paper.EMPLOYEES_1NF_SCHEMA)
    db.insert_many("EMPLOYEES-1NF", gen.employees_rows())
    db.create_index("EMP", "EMPLOYEES-1NF", ("EMPNO",))

    db.reset_io_stats()
    db.query(JOIN_QUERY)
    indexed_reads = db.io_stats.logical_reads

    db.use_access_paths = False
    db.reset_io_stats()
    db.query(JOIN_QUERY)
    scan_reads = db.io_stats.logical_reads

    assert indexed_reads < scan_reads


def test_join_lookup_in_exists_over_stored_table():
    db = indexed_paper_db()
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS e IN EMPLOYEES-1NF: "
        "(e.EMPNO = x.MGRNO AND e.SEX = 'female')"
    )
    assert result.column("DNO") == [417]


def test_join_lookup_on_nf2_table_root_index():
    """The inner table can be an NF2 table with a top-level index."""
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.create_table(paper.EMPLOYEES_1NF_SCHEMA)
    db.insert_many("EMPLOYEES-1NF", (r.to_plain() for r in paper.employees_1nf()))
    db.create_index("DNO_IDX", "DEPARTMENTS", ("DNO",))
    # join the other way round: EMPLOYEES outer, DEPARTMENTS inner by DNO
    result = db.query(
        "SELECT e.LNAME, d.BUDGET FROM e IN EMPLOYEES-1NF, d IN DEPARTMENTS "
        "WHERE d.DNO = 314 AND e.EMPNO = d.MGRNO"
    )
    assert [(r["LNAME"], r["BUDGET"]) for r in result] == [("Schmidt", 320_000)]


def test_all_quantifier_not_restricted_by_lookup():
    """ALL must see every row — the equality shortcut applies to EXISTS
    only."""
    db = indexed_paper_db()
    # ALL employees have EMPNO = 39582? certainly not
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE ALL e IN EMPLOYEES-1NF: e.EMPNO = 39582"
    )
    assert len(result) == 0


# ---------------------------------------------------------------------------
# EXPLAIN predicts exactly the probes execution makes
# ---------------------------------------------------------------------------


def abc_db() -> Database:
    """Three flat tables, NULL-free; only ``B.BK`` is indexed."""
    db = Database()
    db.execute("CREATE TABLE A (AK INT, AV INT)")
    db.execute("CREATE TABLE B (BK INT, BJ INT)")
    db.execute("CREATE TABLE C (CK INT)")
    for i in range(12):
        db.execute(f"INSERT INTO A VALUES ({i}, {i % 6})")
        db.execute(f"INSERT INTO B VALUES ({i % 8}, {i % 5})")
        db.execute(f"INSERT INTO C VALUES ({i % 4})")
    db.execute("CREATE INDEX B_BK ON B (BK)")
    return db


JOIN_SHAPES = {
    "inner-to-outer": (
        "SELECT a.AK, b.BJ FROM a IN A, b IN B WHERE b.BK = a.AV",
        True,
    ),
    "literal": ("SELECT a.AK, b.BJ FROM a IN A, b IN B WHERE b.BK = 7", True),
    "outer-to-inner": (
        "SELECT a.AK, b.BJ FROM a IN A, b IN B WHERE a.AV = b.BK",
        True,
    ),
    "same-range": (
        "SELECT a.AK, b.BJ FROM a IN A, b IN B WHERE b.BK = b.BJ",
        False,
    ),
    "later-range": (
        "SELECT a.AK, b.BJ, c.CK FROM a IN A, b IN B, c IN C "
        "WHERE b.BK = c.CK",
        False,
    ),
}


def _sorted_rows(table) -> list:
    return sorted(tuple(sorted(r.to_plain().items())) for r in table.rows)


@pytest.mark.parametrize("oracle", ["compiled", "interpreted"])
@pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
def test_explain_agrees_with_execution_on_join_probes(shape, oracle):
    """EXPLAIN predicts the probes; the probed rows equal the oracle's:
    the engine's own scan twin (``compiled``) or the reference
    interpreter of ``tests/model`` (``interpreted``)."""
    query, probes = JOIN_SHAPES[shape]
    db = abc_db()
    predicted = "index nested loops (B_BK)" in db.execute(f"EXPLAIN {query}")
    analyzed = db.execute(f"EXPLAIN ANALYZE {query}")
    lookups = int(re.search(r"join lookups: (\d+)", analyzed).group(1))
    assert predicted == (lookups > 0) == probes
    assert ("index nested loops (B_BK)" in analyzed) == probes

    with_index = _sorted_rows(db.query(query))
    assert with_index  # every shape joins something on this data
    if oracle == "interpreted":
        assert _sorted_rows(reference_query(db, query)) == with_index
        return
    db.use_access_paths = False
    assert "index nested loops" not in db.execute(f"EXPLAIN {query}")
    assert _sorted_rows(db.query(query)) == with_index


# ---------------------------------------------------------------------------
# Join probes under every concurrency regime
# ---------------------------------------------------------------------------


JOIN = (
    "SELECT o.OK, i.IK, i.NAME FROM o IN O, i IN I "
    "WHERE i.IK = o.REF"
)


def regime_db(inner: str, mvcc: bool) -> Database:
    """Outer flat ``O`` joined to inner ``I`` on ``I.IK`` (unique keys):
    ``I`` is a flat table behind a ``FlatIndex`` or an NF² table behind a
    ROOT_TID index."""
    db = Database(mvcc=mvcc)
    db.execute("CREATE TABLE O (OK INT, REF INT)")
    for k in range(8):
        db.execute(f"INSERT INTO O VALUES ({k}, {k % 5})")
    if inner == "flat":
        db.execute("CREATE TABLE I (IK INT, NAME STRING)")
        for k in range(6):
            db.execute(f"INSERT INTO I VALUES ({k}, 'i{k}')")
    else:
        db.execute(
            "CREATE TABLE I (IK INT, NAME STRING, PARTS TABLE OF (P INT))"
        )
        for k in range(6):
            db.insert("I", _inner_row(inner, k, f"i{k}"))
    db.create_index("I_IK", "I", ("IK",), mode=AddressingMode.ROOT_TID)
    return db


def _inner_row(inner: str, key: int, name: str) -> dict:
    row = {"IK": key, "NAME": name}
    if inner == "nf2":
        row["PARTS"] = [{"P": key}]
    return row


def _count_lookups(db: Database) -> list:
    """Count the join probes that an index answered."""
    hits: list = []
    original = db.lookup_rows

    def counting(name, attribute, value):
        rows = original(name, attribute, value)
        if rows is not None:
            hits.append(value)
        return rows

    db.lookup_rows = counting
    return hits


def _scan(db: Database, run) -> list:
    db.use_access_paths = False
    try:
        return _sorted_rows(run(JOIN))
    finally:
        db.use_access_paths = True


def _key_of_tid(db: Database, inner: str) -> dict:
    entry = db.catalog.table("I")
    if inner == "flat":
        return {tid: entry.store.fetch(tid)["IK"] for tid in db.tids("I")}
    return {
        tid: db.open_object("I", tid).materialize()["IK"] for tid in db.tids("I")
    }


@pytest.mark.parametrize("inner", ["flat", "nf2"])
def test_join_probes_without_a_session(inner):
    db = regime_db(inner, mvcc=False)
    hits = _count_lookups(db)
    rows = _sorted_rows(db.query(JOIN))
    assert hits
    assert rows == _scan(db, db.query)
    assert rows == _sorted_rows(reference_query(db, JOIN))
    assert len(rows) == 8  # every REF (k % 5) has one partner


@pytest.mark.parametrize("inner", ["flat", "nf2"])
def test_join_probes_s_lock_every_returned_row_under_2pl(inner):
    db = regime_db(inner, mvcc=False)
    key_of = _key_of_tid(db, inner)
    hits = _count_lookups(db)
    session = db.session(name="reader")
    with session.transaction():
        result = session.query(JOIN)
        locked = {
            key_of[info.resource[2]]
            for info in session.locks_held()
            if info.resource[:2] == ("object", "I") and info.mode is LockMode.S
        }
    assert hits
    returned = {row["IK"] for row in result.rows}
    assert returned and returned <= locked
    assert _sorted_rows(result) == _scan(db, session.query)
    session.close()


@pytest.mark.parametrize("inner", ["flat", "nf2"])
def test_join_probes_read_the_pinned_snapshot(inner):
    db = regime_db(inner, mvcc=True)
    hits = _count_lookups(db)
    reader = db.session(name="reader")
    writer = db.session(name="writer")
    with reader.transaction(isolation="snapshot"):
        before = reader.query(JOIN)
        assert _sorted_rows(before) == _scan(db, reader.query)
        # committed after the snapshot: a partner row deleted, a new
        # partner for REF 4 inserted
        writer.execute("DELETE FROM I i WHERE i.IK = 3")
        writer.insert("I", _inner_row(inner, 4, "late"))
        hits.clear()
        after = reader.query(JOIN)
        assert hits  # the probes ran inside the pinned snapshot
        assert _sorted_rows(after) == _sorted_rows(before)
        assert _sorted_rows(after) == _scan(db, reader.query)
    names = after.column("NAME")
    assert "i3" in names and "late" not in names
    # once the snapshot is released the committed changes are visible
    names = reader.query(JOIN).column("NAME")
    assert "late" in names and "i3" not in names
    reader.close()
    writer.close()
