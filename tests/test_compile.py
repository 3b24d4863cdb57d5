"""The execution core (``repro.query.compile``).

The contract under test: the engine answers every statement shape the
way the plain-Python reference evaluator (``tests/model/reference.py``)
does — values, and row order wherever the statement fixes one — while
compiling each statement once (AST-fingerprint cache), skipping
index-settled conjuncts, scanning flat tables in columnar chunks, and
decoding NF2 data subtuples lazily.
"""

import datetime
from collections import Counter

import pytest

from repro.database import Database
from repro.errors import BindError
from repro.obs import METRICS
from repro.query import ast
from repro.query import executor as executor_mod
from repro.query.executor import _compile_mask, _sortable, compare

from tests.conftest import parity_database
from tests.model.reference import assert_matches_reference


@pytest.fixture
def db() -> Database:
    return parity_database()


def canonical_rows(result) -> list:
    return [row.canonical() for row in result.rows]


# ---------------------------------------------------------------------------
# parity: every statement shape the engine supports
# ---------------------------------------------------------------------------

PARITY_QUERIES = [
    # flat projections, filters, ordering
    "SELECT e.ENAME, e.SAL FROM e IN EMP WHERE e.SAL > 40000",
    "SELECT e.ENAME FROM e IN EMP ORDER BY e.SAL DESC, e.ENAME",
    "SELECT DISTINCT e.DEPT FROM e IN EMP ORDER BY e.DEPT",
    "SELECT * FROM p IN PROJECTS-1NF WHERE p.PNO >= 12 ORDER BY p.PNO",
    # multi-range joins (index nested loops when available)
    "SELECT d.DNO, p.PNAME FROM d IN DEPARTMENTS-1NF, p IN PROJECTS-1NF "
    "WHERE d.DNO = p.DNO ORDER BY d.DNO, p.PNAME",
    # hierarchical navigation, nested ranges
    "SELECT x.DNO, y.PNAME FROM x IN DEPARTMENTS, y IN x.PROJECTS "
    "WHERE y.PNO > 10 ORDER BY x.DNO, y.PNAME",
    # nested sub-SELECT output attributes
    "SELECT x.DNO, (SELECT y.PNO FROM y IN x.PROJECTS WHERE y.PNO > 11) "
    "AS BIG FROM x IN DEPARTMENTS ORDER BY x.DNO",
    # expression-position subquery (an aggregate's argument)
    "SELECT x.DNO, COUNT((SELECT y.PNO FROM y IN x.PROJECTS "
    "WHERE y.PNO > 11)) AS N FROM x IN DEPARTMENTS ORDER BY x.DNO",
    # quantifiers
    "SELECT x.DNO FROM x IN DEPARTMENTS "
    "WHERE EXISTS y IN x.PROJECTS: y.PNO = 17",
    "SELECT x.DNO FROM x IN DEPARTMENTS "
    "WHERE ALL y IN x.PROJECTS: y.PNO > 5",
    "SELECT x.DNO FROM x IN DEPARTMENTS "
    "WHERE EXISTS y IN x.PROJECTS EXISTS z IN y.MEMBERS "
    "z.FUNCTION = 'Consultant'",
    # negation
    "SELECT e.ENAME FROM e IN EMP "
    "WHERE NOT (e.SAL > 40000 OR e.DEPT = 'd2') ORDER BY e.ENAME",
    # CONTAINS / IS NULL
    "SELECT m.EMPNO FROM m IN MEMBERS-1NF WHERE m.FUNCTION CONTAINS 'Cons*t'",
    "SELECT e.ENAME FROM e IN EMP WHERE e.SAL IS NOT NULL",
    "SELECT e.ENAME FROM e IN EMP WHERE e.SAL IS NULL ORDER BY e.ENAME",
    # aggregates (flattened paths and subtable counts)
    "SELECT x.DNO, COUNT(x.PROJECTS) AS N FROM x IN DEPARTMENTS "
    "ORDER BY x.DNO",
    "SELECT x.DNO, SUM(x.EQUIP.QU) AS TOTAL FROM x IN DEPARTMENTS "
    "ORDER BY x.DNO",
    "SELECT x.DNO, MAX(x.PROJECTS.MEMBERS.EMPNO) AS TOP FROM x IN DEPARTMENTS "
    "WHERE SUM(x.EQUIP.QU) > 6 ORDER BY x.DNO",
    "SELECT x.DNO FROM x IN DEPARTMENTS WHERE COUNT((SELECT y.PNO "
    "FROM y IN x.PROJECTS WHERE y.PNO > 20)) > 0 ORDER BY x.DNO",
    # subscripts (the language is 1-based; out-of-range yields NULL)
    "SELECT d.ID, d.AUTHORS[2].NAME AS SECOND FROM d IN DOCS ORDER BY d.ID",
    "SELECT d.ID FROM d IN DOCS WHERE d.AUTHORS[1].NAME = 'Jones'",
    # whole subtables in the select list
    "SELECT x.DNO, x.EQUIP FROM x IN DEPARTMENTS ORDER BY x.DNO",
    # literal-only predicates
    "SELECT e.ENAME FROM e IN EMP WHERE 1 = 1",
    # SYS virtual catalog
    "SELECT t.NAME FROM t IN SYS.TABLES ORDER BY t.NAME",
]


def test_parity_battery(db):
    db.use_access_paths = False  # scans: row order is compared too
    for sql in PARITY_QUERIES:
        assert_matches_reference(db, sql)


def test_parity_with_indexes(db):
    """Same battery once access paths exist — plans change, results don't."""
    db.create_index("DN", "DEPARTMENTS", "DNO")
    db.create_index("PN_HIER", "DEPARTMENTS", "PROJECTS.PNO")
    db.create_index("FN_HIER", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    db.create_index("SAL_IX", "EMP", "SAL")
    for sql in PARITY_QUERIES:
        assert_matches_reference(db, sql)


def test_asof_parity():
    """Temporal reads take the version-chain path."""
    from repro.datasets import paper

    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA, versioned=True)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    for sql in (
        # before any insert: empty
        "SELECT x.DNO FROM x IN DEPARTMENTS ASOF '1984-01-15' ORDER BY x.DNO",
        # far future: everything visible
        "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS ASOF '2100-01-01' "
        "ORDER BY x.DNO",
    ):
        assert_matches_reference(db, sql)


# ---------------------------------------------------------------------------
# the statement cache
# ---------------------------------------------------------------------------


def test_statement_compiles_once(db):
    sql = "SELECT e.ENAME FROM e IN EMP WHERE e.SAL > 40000"
    db.query(sql)
    assert db._executor.exec_report.cache == "miss"
    METRICS.clear()
    METRICS.enable()
    try:
        db.query(sql)
        assert db._executor.exec_report.cache == "hit"
        assert METRICS.counter("exec.compile_hits").total == 1
        assert METRICS.counter("exec.compiles").total == 0
    finally:
        METRICS.disable()
        METRICS.clear()


def test_alter_table_invalidates_compiled_plans(db):
    sql = "SELECT * FROM e IN EMP WHERE e.SAL > 40000"
    before = db.query(sql)
    db.query(sql)
    assert db._executor.exec_report.cache == "hit"
    db.execute("ALTER TABLE EMP ADD NOTE STRING")
    after = db.query(sql)
    # the schema epoch moved: recompiled, and the new attribute is seen
    assert db._executor.exec_report.cache == "miss"
    assert "NOTE" in after.schema.attribute_names
    assert len(after.rows) == len(before.rows)


def test_compiled_cache_is_bounded(db, monkeypatch):
    monkeypatch.setattr(executor_mod, "_COMPILED_CACHE_LIMIT", 4)
    for bound in range(30000, 30010):
        db.query(f"SELECT e.ENAME FROM e IN EMP WHERE e.SAL > {bound}")
    assert len(db._executor._compiled_cache) <= 4


def test_literal_types_are_part_of_the_plan_key():
    """``1``, ``1.0`` and ``TRUE`` are equal in Python but bind to INT,
    FLOAT and BOOL: a statement differing only in a literal's type is
    another statement, not a plan-cache hit."""
    assert ast.Literal(True) != ast.Literal(1) != ast.Literal(1.0)
    assert len({ast.Literal(True), ast.Literal(1), ast.Literal(1.0)}) == 3
    db = Database()
    db.execute("CREATE TABLE T (A INT, B BOOL, F FLOAT)")
    db.insert("T", {"A": 7, "B": True, "F": 0.5})
    for literal, kind in (("1", int), ("1.0", float), ("TRUE", bool)):
        result = db.query(f"SELECT t.A, {literal} AS X FROM t IN T")
        assert db._executor.exec_report.cache == "miss", literal
        assert type(result.rows[0]["X"]) is kind, literal
    assert len(db.query("SELECT t.A FROM t IN T WHERE t.B = TRUE").rows) == 1
    with pytest.raises(BindError):
        db.query("SELECT t.A FROM t IN T WHERE t.B = 1")


# ---------------------------------------------------------------------------
# settled conjuncts
# ---------------------------------------------------------------------------

CONJUNCTIVE = (
    "SELECT x.DNO FROM x IN DEPARTMENTS "
    "WHERE EXISTS y IN x.PROJECTS (y.PNO = 17 AND "
    "EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant')"
)


def _with_hierarchical_indexes(db: Database) -> Database:
    db.create_index("PN_HIER", "DEPARTMENTS", "PROJECTS.PNO")
    db.create_index("FN_HIER", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    return db


def _predicate_evals(db: Database, sql: str) -> tuple[int, list]:
    METRICS.clear()
    METRICS.enable()
    try:
        result = db.query(sql)
        return db._executor.last_profile.predicate_evals, canonical_rows(result)
    finally:
        METRICS.disable()
        METRICS.clear()


def test_settled_conjuncts_skip_residual_predicate(db):
    """Settled plan = residual plan: the same rows, whether the index
    settles the WHERE or a scan re-tests it on every object."""
    _with_hierarchical_indexes(db)
    settled_evals, settled_rows = _predicate_evals(db, CONJUNCTIVE)
    # the whole WHERE settled on index information alone: it is never
    # re-tested against fetched objects
    assert db._executor.exec_report.settled_conjuncts == 1
    db.use_access_paths = False
    residual_evals, residual_rows = _predicate_evals(db, CONJUNCTIVE)
    assert db._executor.exec_report.settled_conjuncts == 0
    assert settled_evals == 0
    assert residual_evals > 0
    assert settled_rows and Counter(settled_rows) == Counter(residual_rows)


def test_settled_stripped_under_mvcc():
    """MVCC defers index cleanup to GC — hits may be stale by fetch time,
    so settlement must not skip the re-check."""
    db = _with_hierarchical_indexes(parity_database(mvcc=True))
    assert_matches_reference(db, CONJUNCTIVE)
    assert db._executor.exec_report.settled_conjuncts == 0


def test_settled_stripped_inside_session(db):
    """Under 2PL a writer may change a candidate between the index probe
    and our S-lock; the predicate must re-verify."""
    _with_hierarchical_indexes(db)
    expected = canonical_rows(db.query(CONJUNCTIVE))
    with db.session(name="reader") as session:
        result = session.execute(CONJUNCTIVE)
        assert canonical_rows(result) == expected
        assert db._executor.exec_report.settled_conjuncts == 0


def test_settlement_never_skips_bool_literals():
    """B+-tree equality says ``True == 1``; ``compare()`` never equates a
    boolean with a number — so boolean conjuncts must not settle."""
    db = Database()
    db.execute("CREATE TABLE F (K INT, OK BOOL)")
    db.insert("F", {"K": 1, "OK": True})
    db.insert("F", {"K": 2, "OK": False})
    db.create_index("OK_IX", "F", "OK")
    sql = "SELECT f.K FROM f IN F WHERE f.OK = TRUE"
    assert_matches_reference(db, sql)
    assert db._executor.exec_report.settled_conjuncts == 0


# ---------------------------------------------------------------------------
# lazy decode and columnar scans
# ---------------------------------------------------------------------------


def _data_decodes(db: Database, sql: str) -> tuple[float, list]:
    METRICS.clear()
    METRICS.enable()
    try:
        result = db.query(sql)
        decodes = METRICS.counter("storage.data_subtuple_decodes").total
        return decodes, canonical_rows(result)
    finally:
        METRICS.disable()
        METRICS.clear()


def test_lazy_decode_skips_untouched_hierarchies(db):
    _with_hierarchical_indexes(db)
    # settled predicate + root-atomic projection: only the root's data
    # subtuple should ever decode
    sql = (
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS: y.PNO = 17"
    )
    settled_decodes, settled_rows = _data_decodes(db, sql)
    assert_matches_reference(db, sql)
    # one root data subtuple per result row, no PROJECTS data at all
    assert settled_decodes == len(settled_rows) == 1
    db.use_access_paths = False
    scan_decodes, scan_rows = _data_decodes(db, sql)
    assert scan_rows == settled_rows
    assert scan_decodes > settled_decodes


def test_columnar_flat_scan(db):
    sql = (
        "SELECT e.ENAME, e.SAL FROM e IN EMP "
        "WHERE e.SAL > 40000 ORDER BY e.SAL"
    )
    db.use_access_paths = False
    assert_matches_reference(db, sql)
    assert db._executor.exec_report.columnar_chunks > 0


def test_columnar_respects_updates(db):
    """The chunked scan reads current heap state, not a stale snapshot."""
    sql = "SELECT e.ENAME FROM e IN EMP WHERE e.SAL > 900000"
    assert db.query(sql).rows == []
    db.execute("UPDATE EMP e SET SAL = 950000 WHERE e.ENAME = 'emp-007'")
    names = [row["ENAME"] for row in db.query(sql).rows]
    assert names == ["emp-007"]


# ---------------------------------------------------------------------------
# satellite: compare()/_sortable edges
# ---------------------------------------------------------------------------


def test_sortable_orders_mixed_date_datetime():
    day = datetime.date(2026, 8, 8)
    morning = datetime.datetime(2026, 8, 8, 9, 30)
    evening = datetime.datetime(2026, 8, 8, 21, 0)
    keys = sorted([_sortable(evening), _sortable(day), _sortable(morning)])
    # the bare date sorts as that day's midnight, before both timestamps
    assert keys == [_sortable(day), _sortable(morning), _sortable(evening)]
    assert _sortable(morning) != _sortable(evening)  # time-of-day preserved


def test_order_by_desc_with_nulls():
    db = Database()
    db.execute("CREATE TABLE T (K INT, V INT)")
    for k, v in ((1, 10), (2, None), (3, 30), (4, None)):
        db.insert("T", {"K": k, "V": v})
    sql = "SELECT t.K FROM t IN T ORDER BY t.V DESC, t.K"
    db.use_access_paths = False
    keys = [row["K"] for row in assert_matches_reference(db, sql).rows]
    # NULLs sort first ascending, therefore last descending; ties break
    # on the secondary ascending key
    assert keys == [3, 1, 2, 4]


def test_bool_vs_number_compare():
    # distinct types are never equal, so <> must say so — and ordering
    # between them is false, not an error (two-valued logic)
    assert compare("<>", True, 1) is True
    assert compare("=", True, 1) is False
    assert compare("<", False, 1) is False
    assert compare("=", True, True) is True
    assert compare("<>", False, False) is False


def test_contains_compiles_mask_once_per_statement():
    db = Database()
    db.execute("CREATE TABLE T (K INT, S STRING)")
    for i in range(64):
        db.insert("T", {"K": i, "S": f"value-{i:03d}"})
    sql = "SELECT t.K FROM t IN T WHERE t.S CONTAINS 'value-0?1'"
    _compile_mask.cache_clear()
    result = db.query(sql)
    assert [row["K"] for row in result.rows] == [1, 11, 21, 31, 41, 51, 61]
    info = _compile_mask.cache_info()
    assert info.misses == 1, info  # one compile, not one per row
