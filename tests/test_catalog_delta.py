"""COMMIT records carry catalog deltas, not catalog snapshots.

After every commit the log must still describe the catalog exactly: the
last CHECKPOINT's full state with every later COMMIT delta folded in
(``repro.wal.delta.apply_catalog_delta``) equals ``_catalog_state()``,
index statistics aside.  A :class:`ReplayChecker` shipper checks that
after each commit, across plain, 2PL and MVCC sessions, explicit
rollback, the abort path, copy-on-write updates, ``checkin``, MVCC
garbage collection and both versioned-table kinds.  The last tests pin
the point of it: a one-row COMMIT costs the same handful of bytes
whatever the table's size.
"""

from __future__ import annotations

import copy
import datetime
from collections import Counter

import pytest

from repro.database import Database
from repro.datasets import paper
from repro.errors import DataError, WalError
from repro.storage.pagedfile import MemoryPagedFile
from repro.wal.delta import apply_catalog_delta
from repro.wal.record import REC_COMMIT, decode_catalog, iter_records
from repro.wal.recovery import recover

NEST_DDL = "CREATE TABLE NEST (K INT, KIDS TABLE OF (X INT, TAG STRING))"


def without_stats(state: dict) -> dict:
    state = copy.deepcopy(state)
    for table in state["tables"]:
        for index in table["indexes"]:
            index.pop("stats", None)
    return state


def log_records(db: Database) -> list:
    with open(db._wal_path, "rb") as handle:
        return list(iter_records(handle.read()))


def replayed_catalog(db: Database) -> dict:
    """What crash recovery would install now: the last CHECKPOINT's
    catalog with every later COMMIT folded in."""
    return recover(db._wal_path, MemoryPagedFile()).catalog_state


class ReplayChecker:
    """A WAL shipper that replays the log after every commit and compares
    it with the in-memory catalog; it also tallies the delta operations
    it saw, so a test can prove it exercised what it claims to."""

    def __init__(self, db: Database):
        self.db = db
        self.commits = 0
        self.mismatches: list = []
        self.kinds: Counter = Counter()
        db.wal.shippers.append(self)

    def __call__(self, pages, delta) -> None:
        self.commits += 1
        self.kinds["dropped"] += len(delta["dropped"])
        for change in delta["tables"]:
            if "entry" in change:
                self.kinds["entry"] += 1
                continue
            for op in change["roots"] + change["pages"]:
                self.kinds[op[0]] += 1
        got = without_stats(replayed_catalog(self.db))
        want = without_stats(self.db._catalog_state())
        if got != want:
            self.mismatches.append((self.commits, delta))

    def check(self, *kinds: str) -> None:
        assert self.db.wal.ship_errors == 0
        assert self.commits > 0
        assert self.mismatches == []
        missing = [kind for kind in kinds if not self.kinds[kind]]
        assert not missing, f"workload produced no {missing} operations"


def open_db(tmp_path, name="delta.db", **kwargs) -> tuple[Database, ReplayChecker]:
    # a small auto-checkpoint threshold: deltas must also restart cleanly
    # from the checkpoints the workload triggers
    db = Database(
        path=str(tmp_path / name), wal_auto_checkpoint_bytes=8 * 1024, **kwargs
    )
    return db, ReplayChecker(db)


def big_kids(count: int = 120) -> list:
    """Members enough to spread one object's data over several pages."""
    return [{"X": i, "TAG": "m%03d-" % i + "x" * 60} for i in range(count)]


def test_plain_dml_and_ddl_replay_after_every_commit(tmp_path):
    db, checker = open_db(tmp_path)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.execute("CREATE INDEX DEPT_DNO ON DEPARTMENTS (DNO)")
    db.execute("UPDATE DEPARTMENTS x SET BUDGET = 7 WHERE x.DNO = 314")
    db.execute(
        "INSERT INTO y.MEMBERS FROM x IN DEPARTMENTS, y IN x.PROJECTS "
        "WHERE x.DNO = 314 AND y.PNO = 17 VALUES (77001, 'Staff')"
    )
    db.execute(
        "DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS "
        "WHERE z.FUNCTION = 'Staff'"
    )
    db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 218")
    db.execute("DROP INDEX DEPT_DNO")

    db.execute("CREATE TABLE EVENTS (ID INT, KIND STRING)")
    db.insert_many("EVENTS", [{"ID": i, "KIND": "k%d" % i} for i in range(300)])
    db.execute("DELETE FROM EVENTS e WHERE e.ID < 40")
    db.execute("ALTER TABLE EVENTS ADD NOTE STRING")

    # emptying a big object's member pages frees them from the segment
    db.execute(NEST_DDL)
    db.insert("NEST", {"K": 1, "KIDS": big_kids()})
    db.execute("DELETE z FROM x IN NEST, z IN x.KIDS WHERE x.K = 1")
    db.insert("NEST", {"K": 2, "KIDS": big_kids(30)})  # reuses freed pages

    db.execute("DROP TABLE EVENTS")
    checker.check("+", "-", "a", "f", "entry", "dropped")
    assert db.wal.checkpoints > 1  # the log restarted from a checkpoint
    db.close()


def test_drop_and_recreate_in_one_transaction_keeps_table_order(tmp_path):
    db, checker = open_db(tmp_path)
    for name in ("A", "B", "C"):
        db.execute(f"CREATE TABLE {name} (V INT)")
        db.insert(name, {"V": 1})
    with db.transaction():
        db.execute("DROP TABLE A")
        db.execute("CREATE TABLE D (V INT)")
        db.execute("CREATE TABLE A (V INT, W INT)")
        db.insert("A", {"V": 2, "W": 3})
    checker.check("dropped", "entry")
    names = [t["segment"]["name"] for t in replayed_catalog(db)["tables"]]
    assert names == ["B", "C", "D", "A"]
    assert names == [entry.name for entry in db.catalog.tables()]
    db.close()


def test_rollback_and_failed_statement_replay(tmp_path):
    db, checker = open_db(tmp_path)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    commits = checker.commits
    with pytest.raises(KeyError):
        with db.transaction():
            db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 314")
            db.insert("DEPARTMENTS", paper.DEPARTMENTS_ROWS[0])
            raise KeyError("roll back")
    assert checker.commits == commits  # the abort logs ABORT alone
    # the abort path: the statement fails after its first insert, and the
    # successor transaction commits what memory kept
    db.execute("CREATE TABLE F (A INT)")
    with pytest.raises(DataError):
        db.insert_many("F", [{"A": 1}, {"B": 2}])
    assert [row["A"] for row in db.iterate_table("F")] == [1]
    assert db.wal.aborts >= 2
    checker.check("+", "entry")
    db.close()


def test_replay_across_an_aborted_transaction(tmp_path):
    """An abort that rewrote an object, freed its member pages and took
    fresh ones logs ABORT alone; the commits after it still fold onto
    the log's catalog exactly, page lists included."""
    db, checker = open_db(tmp_path)
    db.execute(NEST_DDL)
    db.insert("NEST", {"K": 1, "KIDS": big_kids()})
    db.insert("NEST", {"K": 2, "KIDS": big_kids(30)})
    commits, pages = checker.commits, db._file.page_count
    with pytest.raises(KeyError):
        with db.transaction():
            db.execute("DELETE z FROM x IN NEST, z IN x.KIDS WHERE x.K = 1")
            db.insert("NEST", {"K": 3, "KIDS": big_kids(200)})
            raise KeyError("roll back")
    assert checker.commits == commits
    assert db._file.page_count > pages  # the transaction took fresh pages
    assert without_stats(replayed_catalog(db)) == without_stats(db._catalog_state())
    db.execute("DELETE z FROM x IN NEST, z IN x.KIDS WHERE x.K = 1")
    db.insert("NEST", {"K": 4, "KIDS": big_kids(200)})
    checker.check("+", "a", "f")
    assert db.verify() == []
    db.close()


def test_two_phase_locking_sessions_replay(tmp_path):
    db, checker = open_db(tmp_path)
    db.execute("CREATE TABLE T (A INT, B STRING)")
    db.execute("CREATE INDEX T_A ON T (A)")
    with db.session(name="writer") as session:
        for i in range(20):
            session.execute(f"INSERT INTO T VALUES ({i}, 'r{i}')")
        session.execute("UPDATE T t SET B = 'u' WHERE t.A = 3")
        with session.transaction():
            session.execute("DELETE FROM T t WHERE t.A < 5")
            session.execute("INSERT INTO T VALUES (100, 'txn')")
        with pytest.raises(KeyError):
            with session.transaction():
                session.execute("DELETE FROM T t WHERE t.A > 10")
                raise KeyError("roll back")
    checker.check("+", "-")
    db.close()


def test_mvcc_sessions_cow_updates_and_gc_replay(tmp_path):
    db, checker = open_db(tmp_path, mvcc=True)
    db.execute("CREATE TABLE T (A INT, B STRING)")
    db.execute(NEST_DDL)
    for i in range(10):
        db.execute(f"INSERT INTO T VALUES ({i}, 'r{i}')")
    db.insert("NEST", {"K": 1, "KIDS": big_kids()})
    with db.session(name="pinned") as session:
        with session.transaction(isolation="snapshot"):
            session.execute("UPDATE T t SET B = 'snap' WHERE t.A = 1")
            session.execute("DELETE FROM T t WHERE t.A = 2")
    # copy-on-write: the object gets a new root, the old version waits
    # for GC, which frees its pages in a later write scope
    db.execute("UPDATE NEST x SET K = 2 WHERE x.K = 1")
    db.execute("UPDATE T t SET B = 'again' WHERE t.A = 3")
    db.execute("INSERT INTO T VALUES (99, 'last')")
    checker.check("+", "-", "~", "a", "f")
    db.close()


def test_checkin_replay(tmp_path):
    workstation = Database()
    workstation.create_table(paper.DEPARTMENTS_SCHEMA)
    tid = workstation.insert("DEPARTMENTS", paper.DEPARTMENTS_ROWS[0])
    blob = workstation.checkout("DEPARTMENTS", tid)
    db, checker = open_db(tmp_path)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.checkin("DEPARTMENTS", blob)
    db.checkin("DEPARTMENTS", blob)
    checker.check("+", "a")
    assert len(db.tids("DEPARTMENTS")) == 2
    db.close()


@pytest.mark.parametrize("versioning", ["object", "subtuple"])
def test_versioned_tables_log_whole_entries(tmp_path, versioning):
    db, checker = open_db(tmp_path)
    db.create_table(paper.DEPARTMENTS_SCHEMA, versioned=True, versioning=versioning)
    tid = db.insert(
        "DEPARTMENTS", paper.DEPARTMENTS_ROWS[0], at=datetime.date(1984, 1, 1)
    )
    other = db.insert(
        "DEPARTMENTS", paper.DEPARTMENTS_ROWS[1], at=datetime.date(1984, 1, 2)
    )
    tid = db.update(
        "DEPARTMENTS", tid, {"BUDGET": 1}, at=datetime.date(1984, 2, 1)
    )
    db.delete("DEPARTMENTS", other, at=datetime.date(1984, 3, 1))
    checker.check("entry")
    # version store, object ids and history have no journal of their own
    assert not (checker.kinds["+"] or checker.kinds["-"] or checker.kinds["~"])
    db.close()


def test_reopen_after_crash_recovers_the_catalog(tmp_path):
    db, checker = open_db(tmp_path)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.execute("CREATE INDEX DEPT_DNO ON DEPARTMENTS (DNO)")
    db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 218")
    db.execute("CREATE TABLE T (A INT)")
    db.insert_many("T", [{"A": i} for i in range(50)])
    checker.check()
    expected = without_stats(db._catalog_state())
    # crash: no close, no checkpoint — the log alone carries the catalog
    again = Database(path=db._path)
    assert again.last_recovery.committed_txns > 1
    assert without_stats(again._catalog_state()) == expected
    assert again.verify() == []
    again.close()


# ---------------------------------------------------------------------------
# O(change): a COMMIT's size does not grow with the table
# ---------------------------------------------------------------------------


def last_commit_payload(db: Database) -> bytes:
    commits = [r for r in log_records(db) if r.type == REC_COMMIT]
    return commits[-1].payload


def one_row_commit_bytes(tmp_path, rows: int) -> int:
    db = Database(path=str(tmp_path / f"events-{rows}.db"))
    db.execute("CREATE TABLE EVENTS (ID INT, KIND STRING, AT INT)")
    db.insert_many(
        "EVENTS", [{"ID": i, "KIND": "k", "AT": i} for i in range(rows)]
    )
    db.insert("EVENTS", {"ID": rows, "KIND": "new", "AT": 0})
    size = len(last_commit_payload(db))
    db.close()
    return size


def test_one_row_commit_is_o_change(tmp_path):
    large = one_row_commit_bytes(tmp_path, 5_000)
    small = one_row_commit_bytes(tmp_path, 50)
    assert large <= 256
    assert abs(large - small) <= 16


def test_commit_payload_is_a_delta(tmp_path):
    db = Database(path=str(tmp_path / "shape.db"))
    db.execute("CREATE TABLE T (A INT)")
    db.insert("T", {"A": 1})  # allocates the table's first page
    tid = db.insert("T", {"A": 2})
    delta = decode_catalog(last_commit_payload(db))
    assert delta == {
        "format": 2,
        "dropped": [],
        "tables": [
            {"name": "T", "roots": [["+", tid.page, tid.slot]], "pages": []}
        ],
    }
    db.close()


# ---------------------------------------------------------------------------
# apply_catalog_delta refuses what it cannot apply
# ---------------------------------------------------------------------------


def base_state() -> dict:
    return {
        "format": 1,
        "tables": [
            {
                "segment": {"name": "T", "pages": [4, 7], "free_pages": [9]},
                "tids": [[4, 0], [4, 1]],
            }
        ],
    }


def delta_for(roots=(), pages=()) -> dict:
    return {
        "format": 2,
        "dropped": [],
        "tables": [{"name": "T", "roots": list(roots), "pages": list(pages)}],
    }


def test_apply_replays_list_order_exactly():
    state = apply_catalog_delta(
        base_state(),
        delta_for(
            roots=[["+", 7, 0], ["-", 4, 0], ["~", 4, 1, 9, 0]],
            pages=[["a", 9], ["f", 4], ["a", 4], ["a", 12]],
        ),
    )
    table = state["tables"][0]
    assert table["tids"] == [[9, 0], [7, 0]]
    assert table["segment"]["pages"] == [7, 9, 4, 12]
    assert table["segment"]["free_pages"] == []


@pytest.mark.parametrize(
    "delta",
    [
        delta_for(roots=[["-", 5, 5]]),
        delta_for(roots=[["~", 5, 5, 6, 6]]),
        delta_for(roots=[["?", 4, 0]]),
        delta_for(pages=[["f", 9]]),
        delta_for(pages=[["a", 8]]),  # the free list holds page 9
        {"format": 2, "dropped": [], "tables": [
            {"name": "U", "roots": [], "pages": []}
        ]},
    ],
    ids=["remove", "replace", "root-kind", "free", "alloc-order", "table"],
)
def test_apply_rejects_a_delta_the_base_contradicts(delta):
    with pytest.raises(WalError):
        apply_catalog_delta(base_state(), delta)
