"""Columnar flat scans: page runs, the compiled row layout, column pruning.

``Database.scan_chunks`` -> ``HeapFile.fetch_columns`` -> the compiled
executor's columnar loop reads each run of same-page TIDs under one pin and
decodes the records straight from the frame with a decoder built once per
attribute layout, decoding only the attributes the statement references.
The contract: the same rows, in the same order, as the plain-Python
reference evaluator (``tests/model/reference.py``) on every flat-table
shape, and the paper's page-access unit — one logical read per heap page
— for a scan.
"""

import datetime

import pytest

from repro.database import Database
from repro.obs import METRICS
from repro.storage.constants import FLAG_CHAIN, FLAG_FORWARD, PAGE_SIZE

from tests.model.reference import assert_matches_reference

DDL = "CREATE TABLE T (I INT, S STRING, F FLOAT, B BOOL, D DATE)"
COLUMNS = ("I", "S", "F", "B", "D")

#: pruned and full projections, predicates and sort keys on columns the
#: select list does not name, and ``SELECT *``
QUERIES = [
    "SELECT * FROM t IN T",
    "SELECT t.I FROM t IN T",
    "SELECT t.S, t.D FROM t IN T",
    "SELECT t.I, t.S, t.F, t.B, t.D FROM t IN T",
    "SELECT t.I FROM t IN T WHERE t.S IS NULL",
    "SELECT t.D, t.I FROM t IN T WHERE t.B = TRUE ORDER BY t.F DESC",
    "SELECT t.I FROM t IN T WHERE t.F > 1.5 OR t.I < 3 ORDER BY t.S, t.I",
    "SELECT t.B FROM t IN T WHERE t.S CONTAINS '*7*' ORDER BY t.I DESC",
    "SELECT DISTINCT t.B FROM t IN T ORDER BY t.B",
    "SELECT * FROM t IN T WHERE t.D IS NOT NULL ORDER BY t.I",
]


def _row(n: int) -> dict:
    return {
        "I": n,
        "S": f"row-{n:04d}",
        "F": n / 4,
        "B": n % 2 == 0,
        "D": datetime.date(1986, 1, 1) + datetime.timedelta(days=n),
    }


def _table(rows=40, **kwargs) -> Database:
    db = Database(**kwargs)
    db.execute(DDL)
    db.insert_many("T", [_row(n) for n in range(rows)])
    return db


def assert_parity(db: Database, queries=QUERIES) -> None:
    """Every query: the columnar rows equal the reference's, values and
    order; the run really took the columnar path."""
    db.use_access_paths = False  # a scan: row order is compared too
    for sql in queries:
        assert_matches_reference(db, sql)
        assert db._executor.exec_report.columnar_chunks > 0, sql


def _record_flags(db: Database) -> set:
    segment = db.catalog.table("T").store.segment
    return {segment._read_raw(tid)[0] for tid in db.catalog.table("T").tids}


def _page_runs(db: Database) -> int:
    """Runs of equal page number in the table's TID order."""
    pages = [tid.page for tid in db.catalog.table("T").tids]
    return sum(1 for i, page in enumerate(pages) if i == 0 or page != pages[i - 1])


# ---------------------------------------------------------------------------
# parity on every flat-table shape
# ---------------------------------------------------------------------------


def test_parity_all_types_plain_rows():
    assert_parity(_table())


def test_parity_nulls_in_every_position():
    db = _table(rows=12)
    for position, name in enumerate(COLUMNS):
        row = _row(100 + position)
        row[name] = None
        db.insert("T", row)
    db.insert("T", dict.fromkeys(COLUMNS))
    # more than eight columns: a two-byte NULL bitmap
    db.execute(
        "CREATE TABLE W (A INT, B STRING, C INT, D INT, E BOOL, "
        "F FLOAT, G INT, H DATE, J STRING)"
    )
    wide = ("A", "B", "C", "D", "E", "F", "G", "H", "J")
    values = (1, "b", 3, 4, True, 6.5, 7, datetime.date(2000, 1, 8), "j")
    db.insert("W", dict(zip(wide, values)))
    for position in range(len(wide)):
        row = dict(zip(wide, values))
        row[wide[position]] = None
        db.insert("W", row)
    assert_parity(db)
    assert_parity(
        db, ["SELECT * FROM w IN W", "SELECT w.J, w.A FROM w IN W WHERE w.H IS NULL"]
    )


def test_parity_forward_stubs():
    db = _table(rows=80)
    # grow one row far past what its (full) home page has free
    db.execute(f"UPDATE T t SET S = '{'x' * 1500}' WHERE t.I = 3")
    db.execute(f"UPDATE T t SET S = '{'y' * 1800}' WHERE t.I = 41")
    assert FLAG_FORWARD in _record_flags(db)
    assert_parity(db)


def test_parity_chained_records_longer_than_a_page():
    db = _table(rows=20)
    db.insert("T", {**_row(500), "S": "z" * (PAGE_SIZE + 1500)})
    db.execute(f"UPDATE T t SET S = '{'w' * (PAGE_SIZE * 2)}' WHERE t.I = 7")
    assert FLAG_CHAIN in _record_flags(db)
    assert_parity(db)
    lengths = {
        row["I"]: len(row["S"])
        for row in db.query("SELECT t.I, t.S FROM t IN T WHERE t.I = 7 OR t.I = 500").rows
    }
    assert lengths == {7: PAGE_SIZE * 2, 500: PAGE_SIZE + 1500}


def test_parity_deleted_and_reused_slots():
    db = _table(rows=120)
    db.execute("DELETE FROM T t WHERE t.F < 10.0")  # I < 40: the first page(s)
    # once the last page is full, new rows fill the slots freed on page 0
    db.insert_many("T", [_row(1000 + n) for n in range(150)])
    pages = [tid.page for tid in db.catalog.table("T").tids]
    assert pages != sorted(pages)  # TID order is no longer page order
    assert_parity(db)


def test_parity_after_alter_add():
    db = _table(rows=30)
    db.query("SELECT t.I, t.S FROM t IN T")  # a compiled plan on the old layout
    db.execute("ALTER TABLE T ADD NOTE STRING")
    db.insert("T", {**_row(99), "NOTE": "added"})
    assert_parity(db)
    assert_parity(
        db,
        [
            "SELECT t.NOTE, t.I FROM t IN T ORDER BY t.I DESC",
            "SELECT t.I FROM t IN T WHERE t.NOTE IS NOT NULL",
        ],
    )
    added = db.query("SELECT t.I FROM t IN T WHERE t.NOTE = 'added'")
    assert [row["I"] for row in added.rows] == [99]


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------


def test_fetch_columns_prunes_to_needed_attributes():
    db = _table(rows=25)
    entry = db.catalog.table("T")
    tids = list(entry.tids)
    full = entry.store.fetch_columns(tids)
    assert list(full) == list(COLUMNS)
    pruned = entry.store.fetch_columns(tids, frozenset({"D", "I"}))
    assert list(pruned) == ["I", "D"]  # schema order
    assert pruned == {"I": full["I"], "D": full["D"]}
    assert entry.store.fetch_columns(tids, frozenset()) == {}
    assert full["S"] == [entry.store.fetch(tid)["S"] for tid in tids]


def test_plan_reads_only_referenced_columns():
    db = _table(rows=5)
    seen = []
    original = db.scan_chunks

    def spy(name, needed=None, batch=256):
        seen.append(needed)
        return original(name, needed, batch)

    db.scan_chunks = spy
    db.query("SELECT t.I FROM t IN T WHERE t.B = TRUE ORDER BY t.D")
    db.query("SELECT * FROM t IN T")
    assert seen == [frozenset({"I", "B", "D"}), None]


# ---------------------------------------------------------------------------
# exact counts: one logical read per heap page, one heap fetch per row
# ---------------------------------------------------------------------------


def _scan_counts(db: Database, sql: str) -> tuple[int, float, int]:
    METRICS.clear()
    METRICS.enable()
    before = db.buffer.stats.logical_reads
    try:
        rows = len(db.query(sql).rows)
        reads = db.buffer.stats.logical_reads - before
        fetches = METRICS.counter("storage.heap_fetches").total
    finally:
        METRICS.disable()
        METRICS.clear()
    return reads, fetches, rows


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 800, 2400])
def test_scan_reads_each_heap_page_once(rows):
    db = _table(rows=rows)
    pages = db.catalog.table("T").store.segment.page_count
    assert pages == _page_runs(db)
    reads, fetches, emitted = _scan_counts(db, "SELECT t.I, t.F FROM t IN T WHERE t.I >= 0")
    assert (reads, fetches, emitted) == (pages, rows, rows)
    reads, fetches, _ = _scan_counts(db, "SELECT * FROM t IN T")
    assert (reads, fetches) == (pages, rows)


def test_scan_reads_one_page_per_run_after_slot_reuse():
    db = _table(rows=300)
    db.execute("DELETE FROM T t WHERE t.I < 50")
    db.insert_many("T", [_row(2000 + n) for n in range(150)])
    runs = _page_runs(db)
    assert runs > db.catalog.table("T").store.segment.page_count
    reads, fetches, _ = _scan_counts(db, "SELECT t.I FROM t IN T")
    assert (reads, fetches) == (runs, 400)


def test_forward_stub_costs_its_home_and_remote_reads():
    db = _table(rows=80)
    db.execute(f"UPDATE T t SET S = '{'x' * 1500}' WHERE t.I = 3")
    assert FLAG_FORWARD in _record_flags(db)
    runs = _page_runs(db)
    reads, fetches, _ = _scan_counts(db, "SELECT t.S FROM t IN T")
    # the run pins the home page once; the stub is then re-read and followed
    assert (reads, fetches) == (runs + 2, 80)
