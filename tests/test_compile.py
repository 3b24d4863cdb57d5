"""The compiled execution core (``repro.query.compile``).

The contract under test: ``db.exec_mode = "compiled"`` must return
results byte-identical to the interpreted walker — values *and* row
order — while compiling each statement once (AST-fingerprint cache),
skipping index-settled conjuncts, scanning flat tables in columnar
chunks, and decoding NF2 data subtuples lazily.
"""

import datetime

import pytest

from repro.database import Database
from repro.obs import METRICS
from repro.query import executor as executor_mod
from repro.query.executor import _compile_mask, _sortable, compare

from tests.conftest import load_paper_tables


def build_db(**kwargs) -> Database:
    """The paper's tables plus a flat EMP table the scans chew on."""
    db = Database(**kwargs)
    load_paper_tables(db)
    db.execute("CREATE TABLE EMP (ENAME STRING, DEPT STRING, SAL INT)")
    db.insert_many(
        "EMP",
        (
            {
                "ENAME": f"emp-{i:03d}",
                "DEPT": f"d{i % 5}",
                "SAL": None if i % 11 == 0 else 30000 + i * 500,
            }
            for i in range(40)
        ),
    )
    # an ordered subtable, for subscript parity (the language is 1-based)
    db.execute("CREATE TABLE DOCS (ID INT, AUTHORS LIST OF (NAME STRING))")
    db.insert("DOCS", {"ID": 1, "AUTHORS": [{"NAME": "Jones"}, {"NAME": "Adams"}]})
    db.insert("DOCS", {"ID": 2, "AUTHORS": [{"NAME": "Chen"}]})
    db.insert("DOCS", {"ID": 3, "AUTHORS": []})
    return db


@pytest.fixture
def db() -> Database:
    return build_db()


def canonical_rows(result) -> list:
    """Values and order — parity means both, not just the multiset."""
    return [row.canonical() for row in result.rows]


def run_both(db: Database, sql: str) -> tuple[list, list]:
    db.exec_mode = "interpreted"
    interpreted = canonical_rows(db.query(sql))
    db.exec_mode = "compiled"
    compiled = canonical_rows(db.query(sql))
    return interpreted, compiled


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
    # subscripts (the language is 1-based; out-of-range yields NULL)
    "SELECT d.ID, d.AUTHORS[2].NAME AS SECOND FROM d IN DOCS ORDER BY d.ID",
    # whole subtables in the select list
    "SELECT x.DNO, x.EQUIP FROM x IN DEPARTMENTS ORDER BY x.DNO",
    # literal-only predicates
    "SELECT e.ENAME FROM e IN EMP WHERE 1 = 1",
    # SYS virtual catalog
    "SELECT t.NAME FROM t IN SYS.TABLES ORDER BY t.NAME",
]


def test_parity_battery(db):
    for sql in PARITY_QUERIES:
        interpreted, compiled = run_both(db, sql)
        assert compiled == interpreted, sql


def test_parity_with_indexes(db):
    """Same battery once access paths exist — plans change, results don't."""
    db.create_index("DN", "DEPARTMENTS", "DNO")
    db.create_index("PN_HIER", "DEPARTMENTS", "PROJECTS.PNO")
    db.create_index("FN_HIER", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    db.create_index("SAL_IX", "EMP", "SAL")
    for sql in PARITY_QUERIES:
        interpreted, compiled = run_both(db, sql)
        assert compiled == interpreted, sql


def test_asof_parity():
    """Temporal reads take the version-chain path in both engines."""
    from repro.datasets import paper

    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA, versioned=True)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    for sql in (
        # before any insert: empty in both engines
        "SELECT x.DNO FROM x IN DEPARTMENTS ASOF '1984-01-15' ORDER BY x.DNO",
        # far future: everything visible
        "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS ASOF '2100-01-01' "
        "ORDER BY x.DNO",
    ):
        interpreted, compiled = run_both(db, sql)
        assert compiled == interpreted, sql


# ---------------------------------------------------------------------------
# the statement cache
# ---------------------------------------------------------------------------


def test_statement_compiles_once(db):
    db.exec_mode = "compiled"
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
    db.exec_mode = "compiled"
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
    db.exec_mode = "compiled"
    for bound in range(30000, 30010):
        db.query(f"SELECT e.ENAME FROM e IN EMP WHERE e.SAL > {bound}")
    assert len(db._executor._compiled_cache) <= 4


def test_schema_cache_evicts_lru(db, monkeypatch):
    monkeypatch.setattr(executor_mod, "_SCHEMA_CACHE_LIMIT", 4)
    db.exec_mode = "interpreted"  # the binder cache is mode-agnostic
    METRICS.clear()
    METRICS.enable()
    try:
        for bound in range(40000, 40010):
            db.query(f"SELECT e.ENAME FROM e IN EMP WHERE e.SAL > {bound}")
        assert len(db._executor._schema_cache) <= 4
        assert METRICS.counter("exec.schema_cache_evictions").total > 0
    finally:
        METRICS.disable()
        METRICS.clear()


def test_exec_mode_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_MODE", "interpreted")
    assert Database().exec_mode == "interpreted"
    monkeypatch.delenv("REPRO_EXEC_MODE")
    assert Database().exec_mode == "compiled"


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
    _with_hierarchical_indexes(db)
    db.exec_mode = "interpreted"
    interp_evals, interp_rows = _predicate_evals(db, CONJUNCTIVE)
    db.exec_mode = "compiled"
    compiled_evals, compiled_rows = _predicate_evals(db, CONJUNCTIVE)
    assert compiled_rows == interp_rows
    # the whole WHERE settled on index information alone: the compiled
    # engine never re-tests it against fetched objects
    assert db._executor.exec_report.settled_conjuncts == 1
    assert compiled_evals == 0
    assert interp_evals > 0


def test_settled_stripped_under_mvcc():
    """MVCC defers index cleanup to GC — hits may be stale by fetch time,
    so settlement must not skip the re-check."""
    db = _with_hierarchical_indexes(build_db(mvcc=True))
    db.exec_mode = "compiled"
    interp, compiled = run_both(db, CONJUNCTIVE)
    assert compiled == interp
    assert db._executor.exec_report.settled_conjuncts == 0


def test_settled_stripped_inside_session(db):
    """Under 2PL a writer may change a candidate between the index probe
    and our S-lock; the predicate must re-verify."""
    _with_hierarchical_indexes(db)
    db.exec_mode = "compiled"
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
    interp, compiled = run_both(db, sql)
    assert compiled == interp
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
    db.exec_mode = "interpreted"
    interp_decodes, interp_rows = _data_decodes(db, sql)
    db.exec_mode = "compiled"
    compiled_decodes, compiled_rows = _data_decodes(db, sql)
    assert compiled_rows == interp_rows
    assert compiled_decodes < interp_decodes


def test_columnar_flat_scan(db):
    sql = (
        "SELECT e.ENAME, e.SAL FROM e IN EMP "
        "WHERE e.SAL > 40000 ORDER BY e.SAL"
    )
    interp, compiled = run_both(db, sql)
    assert compiled == interp
    assert db._executor.exec_report.columnar_chunks > 0


def test_columnar_respects_updates(db):
    """The chunked scan reads current heap state, not a stale snapshot."""
    db.exec_mode = "compiled"
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
    interp, compiled = run_both(db, sql)
    assert compiled == interp
    db.exec_mode = "compiled"
    keys = [row["K"] for row in db.query(sql).rows]
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
    for mode in ("interpreted", "compiled"):
        db.exec_mode = mode
        _compile_mask.cache_clear()
        result = db.query(sql)
        assert [row["K"] for row in result.rows] == [1, 11, 21, 31, 41, 51, 61]
        info = _compile_mask.cache_info()
        assert info.misses == 1, (mode, info)  # one compile, not one per row
