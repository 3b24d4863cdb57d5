"""Tests for the single-user transaction scope (rollback by
before-image)."""

import contextlib

import pytest

from repro.database import Database
from repro.datasets import paper
from repro.errors import ExecutionError


def fresh():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    return db


def snapshot(db):
    return db.table_value("DEPARTMENTS")


def test_commit_keeps_changes():
    db = fresh()
    with db.transaction():
        db.execute("UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 314")
        db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 218")
    result = db.query("SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS ORDER BY x.DNO")
    assert [(r["DNO"], r["BUDGET"]) for r in result] == [
        (314, 1), (417, 360_000),
    ]


def test_rollback_restores_everything():
    db = fresh()
    before = snapshot(db)
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 314")
            db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 218")
            db.execute(
                "INSERT INTO DEPARTMENTS VALUES (999, 1, {}, 0, {})"
            )
            db.execute(
                "UPDATE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, "
                "z IN y.MEMBERS SET FUNCTION = 'X' WHERE z.EMPNO = 56019"
            )
            raise RuntimeError("boom")
    assert snapshot(db) == before
    # index contents rolled back too (verified structurally)
    assert db.verify() == []
    assert len(db.catalog.index("FN").search("Consultant")) == 3


def test_rollback_ordering_with_dependent_ops():
    db = fresh()
    before = snapshot(db)
    with pytest.raises(ValueError):
        with db.transaction():
            # insert then update then delete the same new object
            db.execute("INSERT INTO DEPARTMENTS VALUES (500, 1, {}, 10, {})")
            db.execute("UPDATE DEPARTMENTS x SET BUDGET = 20 WHERE x.DNO = 500")
            db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 500")
            raise ValueError
    assert snapshot(db) == before


def test_nested_transaction_rejected():
    db = fresh()
    with db.transaction():
        with pytest.raises(ExecutionError):
            with db.transaction():
                pass


def test_versioned_tables_rejected_inside_transaction():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA, versioned=True)
    tid = db.insert("DEPARTMENTS", paper.DEPARTMENTS_ROWS[0])
    with db.transaction():
        with pytest.raises(ExecutionError):
            db.update("DEPARTMENTS", tid, {"BUDGET": 1})
        with pytest.raises(ExecutionError):
            db.insert("DEPARTMENTS", paper.DEPARTMENTS_ROWS[1])


def test_subtuple_versioned_tables_rejected_with_clear_error():
    db = Database()
    db.create_table(
        paper.DEPARTMENTS_SCHEMA, versioned=True, versioning="subtuple"
    )
    tid = db.insert("DEPARTMENTS", paper.DEPARTMENTS_ROWS[0], at=1.0)
    with db.transaction():
        with pytest.raises(ExecutionError) as excinfo:
            db.update("DEPARTMENTS", tid, {"BUDGET": 1}, at=2.0)
        message = str(excinfo.value)
        assert "subtuple-versioned" in message
        assert "versioning='object'" in message
        with pytest.raises(ExecutionError, match="subtuple-versioned"):
            db.insert("DEPARTMENTS", paper.DEPARTMENTS_ROWS[1], at=2.0)
        with pytest.raises(ExecutionError, match="subtuple-versioned"):
            db.delete("DEPARTMENTS", tid, at=2.0)
    # outside the transaction the same mutation works fine
    db.update("DEPARTMENTS", tid, {"BUDGET": 1}, at=2.0)


def test_transaction_commit_and_rollback_are_durable(tmp_path):
    """Explicit transactions ride the WAL: a committed scope survives a
    reopen without save(); a rolled-back scope leaves no durable trace."""
    path = str(tmp_path / "txn.db")
    db = Database(path=path)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    with db.transaction():
        db.execute("UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 314")
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 218")
            raise RuntimeError("boom")
    # no save(), no close(): reopen recovers from the log alone
    again = Database(path=path)
    result = again.query(
        "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS ORDER BY x.DNO"
    )
    assert [(r["DNO"], r["BUDGET"]) for r in result] == [
        (218, 440_000), (314, 1), (417, 360_000),
    ]
    assert again.verify() == []
    again.close()


def test_queries_inside_transaction_see_own_writes():
    db = fresh()
    with db.transaction():
        db.execute("UPDATE DEPARTMENTS x SET BUDGET = 7 WHERE x.DNO = 314")
        inside = db.query(
            "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 314"
        )
        assert inside.column("BUDGET") == [7]


def test_rolled_back_alter_keeps_rows_and_schema_in_memory():
    db = fresh()
    before = snapshot(db)
    schema = db.table_schema("DEPARTMENTS")
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("ALTER TABLE DEPARTMENTS ADD C INT")
            raise RuntimeError("boom")
    assert db.table_schema("DEPARTMENTS") is schema
    assert snapshot(db) == before
    assert db.verify() == []
    # plans compiled under the altered schema are not reused
    result = db.query("SELECT x.DNO FROM x IN DEPARTMENTS ORDER BY x.DNO")
    assert result.column("DNO") == [218, 314, 417]


def test_rolled_back_alter_on_disk_leaves_the_log_usable(tmp_path):
    path = str(tmp_path / "alter.db")
    db = Database(path=path)
    db.execute("CREATE TABLE T (A INT, B STRING)")
    db.execute("INSERT INTO T VALUES (1, 'one'), (2, 'two')")
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("ALTER TABLE T ADD C INT")
            raise RuntimeError("boom")
    assert db.wal.failure is None
    db.execute("INSERT INTO T VALUES (3, 'three')")  # later writes still commit
    rows = lambda d: sorted(r.to_plain()["A"] for r in d.iterate_table("T"))
    assert rows(db) == [1, 2, 3]
    again = Database(path=path)  # recover from the log alone
    try:
        assert rows(again) == [1, 2, 3]
        assert [a.name for a in again.table_schema("T").attributes] == ["A", "B"]
        assert again.verify() == []
    finally:
        again.close()


@pytest.mark.parametrize("fail", [False, True], ids=["commit", "abort"])
def test_alter_of_an_mvcc_table_inside_a_transaction(fail):
    """ALTER purges the MVCC history it rewrites; an abort brings back the
    old version store, its retained versions, their postings and their
    place in the GC queue."""
    db = Database(mvcc=True)
    db.execute("CREATE TABLE T (A INT, B STRING)")
    db.create_index("TA", "T", "A")
    db.execute("INSERT INTO T VALUES (1, 'one'), (2, 'two')")
    db.execute("UPDATE T x SET A = 3 WHERE x.A = 2")  # retains a version
    entry = db.catalog.table("T")
    store, roots = entry.mvcc, list(entry.tids)
    versions, backlog = len(store.versions()), db.mvcc.gc_backlog()
    probe = lambda: db.query("SELECT x.B FROM x IN T WHERE x.A = 3").column("B")
    with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
        with db.transaction():
            db.execute("DELETE FROM T x WHERE x.A = 1")
            db.execute("ALTER TABLE T ADD C INT")
            db.execute("INSERT INTO T VALUES (4, 'four', 4)")
            if fail:
                raise RuntimeError("boom")
    attributes = [a.name for a in db.table_schema("T").attributes]
    if fail:
        assert attributes == ["A", "B"]
        assert entry.mvcc is store and entry.tids == roots
        assert len(store.versions()) == versions
        assert db.mvcc.gc_backlog() == backlog
    else:
        assert attributes == ["A", "B", "C"]
        assert entry.mvcc is not store
    assert probe() == ["two"]
    assert db.verify() == []
    row = "(5, 'five')" if fail else "(5, 'five', 5)"
    db.execute(f"INSERT INTO T VALUES {row}")  # version GC runs here
    assert db.mvcc.gc_backlog() == 0
    assert db.verify() == []


def test_mvcc_abort_keeps_the_postings_of_committed_versions(monkeypatch):
    """Copy-on-write never touched a committed version's index entries —
    lock-free snapshot readers probe them — so an abort must not either:
    it drops only the postings of the versions it created."""
    db = Database(mvcc=True)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.create_index("DN", "DEPARTMENTS", "DNO")
    committed = set(db.catalog.table("DEPARTMENTS").tids)
    deindexed = []
    store = db.catalog.table("DEPARTMENTS").store
    original = store.deindex
    monkeypatch.setattr(
        store, "deindex", lambda tid: (deindexed.append(tid), original(tid))
    )
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("UPDATE DEPARTMENTS x SET DNO = 999 WHERE x.DNO = 314")
            db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 218")
            raise RuntimeError("boom")
    assert len(deindexed) == 1 and not committed.intersection(deindexed)
    result = db.query("SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314")
    assert result.column("DNO") == [314]
    assert db.verify() == []


def test_abort_logs_abort_alone(tmp_path):
    """An aborted transaction that rewrote pages appends BEGIN and ABORT:
    no page image, no COMMIT, and the rolled-back pages are no longer
    pinned by the no-steal rule."""
    from repro.wal.record import iter_records

    db = Database(path=str(tmp_path / "abort.db"))
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    start, commits = db.wal.stats()["size_bytes"], db.wal.commits
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 314")
            db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 218")
            raise RuntimeError("boom")
    assert db.wal.commits == commits
    assert db.wal.protected_pages == set()
    db.wal._io.fsync()
    with open(db._wal_path, "rb") as handle:
        records = list(iter_records(handle.read()))
    assert [r.name for r in records if r.lsn >= start] == ["BEGIN", "ABORT"]
    db.close()


def test_a_reader_of_another_object_is_not_blocked_by_an_open_transaction():
    """Explicit transactions lock like autocommit statements: table IX
    plus object X, so a 2PL reader of another department goes through."""
    db = fresh()
    db.create_index("DN", "DEPARTMENTS", "DNO")
    with db.session(name="writer") as writer, db.session(
        name="reader", lock_timeout=0.5
    ) as reader:
        with writer.transaction():
            writer.execute("UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 314")
            result = reader.query(
                "SELECT x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = 218"
            )
            assert result.column("BUDGET") == [440_000]


@pytest.mark.parametrize(
    "write, read",
    [
        ("DELETE FROM DEPARTMENTS x WHERE x.DNO = 314", "SELECT x.DNO FROM x IN DEPARTMENTS"),
        ("DELETE FROM DEPARTMENTS x WHERE x.DNO = 314",
         "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314"),
        ("UPDATE DEPARTMENTS x SET DNO = 999 WHERE x.DNO = 314",
         "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 314"),
    ],
    ids=["delete-scan", "delete-probe", "rekey-probe"],
)
def test_a_reader_waits_for_a_root_an_open_transaction_hid(write, read):
    """A deleted root leaves the root list and a re-keyed one its index
    posting, so a 2PL scan or probe would skip the row without meeting
    its object lock; the writer locks the table X instead.  The reader
    blocks, and after the abort it sees the row."""
    import threading

    db = fresh()
    db.create_index("DN", "DEPARTMENTS", "DNO")
    result = []
    with db.session(name="writer") as writer, db.session(
        name="reader", lock_timeout=10
    ) as reader:
        reader_thread = threading.Thread(
            target=lambda: result.append(reader.query(read).column("DNO"))
        )
        with pytest.raises(RuntimeError):
            with writer.transaction():
                writer.execute(write)
                reader_thread.start()
                reader_thread.join(0.3)
                assert reader_thread.is_alive() and result == []
                raise RuntimeError("abort")
        reader_thread.join(10)
    assert 314 in result[0]


def test_rollback_restores_pages_evicted_during_the_transaction():
    """Without a WAL nothing keeps a written page in the pool: a small
    buffer evicts (writes back) most of them before the abort, which
    must put their before-images back all the same."""
    from repro.datasets import DepartmentsGenerator

    db = Database(buffer_capacity=8)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", DepartmentsGenerator(departments=40).rows())
    db.create_index("DN", "DEPARTMENTS", "DNO")
    before, roots = snapshot(db), list(db.catalog.table("DEPARTMENTS").tids)
    evictions = db.io_stats.evictions
    with pytest.raises(KeyError):
        with db.transaction():
            db.execute("UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.BUDGET > 0")
            raise KeyError("roll back")
    assert db.io_stats.evictions - evictions > 8
    assert snapshot(db) == before
    assert db.catalog.table("DEPARTMENTS").tids == roots
    assert db.verify() == []
