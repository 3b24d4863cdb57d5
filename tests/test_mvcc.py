"""MVCC snapshot reads, unified with the ASOF version-chain path.

Covers the headline guarantees:

* readers never block writers (a snapshot read takes **zero** locks even
  while another session holds table-IX + object-X),
* a pinned snapshot transaction's reads never change, no matter what
  commits around it (full scans and index probes alike),
* first-committer-wins: a pinned snapshot that writes a tuple someone
  else changed since the snapshot raises ``SerializationError``,
* ``ASOF t`` and MVCC snapshot reads are literally one code path
  (``repro.mvcc.read.snapshot_roots`` over ``interval_contains``),
* dead versions are reclaimed once no snapshot can see them, and
  ``CHECK TABLE`` stays clean throughout,

plus the satellite regressions: temporal timestamp-axis mixing and the
ASOF boundary semantics (``valid_from`` inclusive, ``valid_to``
exclusive) on both the legacy temporal path and the MVCC snapshot path.
"""

from __future__ import annotations

import datetime
import threading

import pytest

import repro.mvcc.read as mvcc_read
import repro.mvcc.visibility as mvcc_visibility
from repro.database import Database
from repro.errors import ExecutionError, SerializationError, TemporalError
from repro.model.schema import atomic, nested, table


def make_db(**kwargs) -> Database:
    db = Database(mvcc=True, **kwargs)
    db.execute("CREATE TABLE T (A INT, B STRING)")
    for i in range(5):
        db.execute(f"INSERT INTO T VALUES ({i}, 'row{i}')")
    return db


def read_a(session) -> list[int]:
    return sorted(session.execute("SELECT t.A FROM t IN T").column("A"))


# ---------------------------------------------------------------------------
# Basic snapshot reads
# ---------------------------------------------------------------------------


def test_snapshot_reads_see_committed_state():
    db = make_db()
    s = db.session(name="reader")
    assert read_a(s) == [0, 1, 2, 3, 4]
    db.execute("INSERT INTO T VALUES (5, 'row5')")
    # statement snapshots are read-committed: the next statement sees it
    assert read_a(s) == [0, 1, 2, 3, 4, 5]
    s.close()
    db.close()


def test_snapshot_reads_take_zero_locks():
    db = make_db()
    s = db.session(name="reader")
    read_a(s)
    assert s.last_lock_requests == 0
    assert not any(e.startswith("Lock/") for e in s.wait_summary())
    s.close()
    db.close()


def test_readers_never_block_writers():
    """A snapshot read completes lock-free while a writer transaction
    holds table-IX and object-X on the same table."""
    db = make_db()
    writer = db.session(name="writer")
    reader = db.session(name="reader")
    holding = threading.Event()
    release = threading.Event()
    seen: list[list[int]] = []

    def write() -> None:
        with writer.transaction():
            writer.execute("UPDATE T t SET A = 100 WHERE t.A = 0")
            holding.set()
            release.wait(timeout=30)

    thread = threading.Thread(target=write)
    thread.start()
    try:
        assert holding.wait(timeout=30)
        # the writer holds its locks; the reader must not touch any
        seen.append(read_a(reader))
        assert reader.last_lock_requests == 0
        assert not any(e.startswith("Lock/") for e in reader.wait_summary())
    finally:
        release.set()
        thread.join(timeout=30)
    # the uncommitted update was invisible to the reader...
    assert seen == [[0, 1, 2, 3, 4]]
    # ...and became visible once the writer committed
    assert read_a(reader) == [1, 2, 3, 4, 100]
    writer.close()
    reader.close()
    db.close()


# ---------------------------------------------------------------------------
# Pinned snapshot transactions
# ---------------------------------------------------------------------------


def test_pinned_snapshot_is_immutable():
    db = make_db()
    s = db.session(name="pinned")
    with s.transaction(isolation="snapshot"):
        before = read_a(s)
        db.execute("INSERT INTO T VALUES (99, 'late')")
        db.execute("DELETE FROM T t WHERE t.A = 0")
        db.execute("UPDATE T t SET B = 'changed' WHERE t.A = 1")
        assert read_a(s) == before
        assert s.execute(
            "SELECT t.B FROM t IN T WHERE t.A = 1"
        ).column("B") == ["row1"]
    # after the transaction the same session reads current state
    assert read_a(s) == [1, 2, 3, 4, 99]
    s.close()
    db.close()


def test_pinned_snapshot_immutable_through_index_probe():
    """The index path may surface dead or too-new TIDs (deindexing is
    deferred to GC); the snapshot visibility probe must filter them."""
    db = make_db()
    db.execute("CREATE INDEX T_A ON T (A)")
    s = db.session(name="pinned")
    with s.transaction(isolation="snapshot"):
        db.execute("UPDATE T t SET B = 'new' WHERE t.A = 2")
        db.execute("DELETE FROM T t WHERE t.A = 3")
        hit = s.execute("SELECT t.B FROM t IN T WHERE t.A = 2")
        assert hit.column("B") == ["row2"]
        gone = s.execute("SELECT t.B FROM t IN T WHERE t.A = 3")
        assert gone.column("B") == ["row3"]
        assert db.last_plan is not None  # the probe really used the index
    assert s.execute("SELECT t.B FROM t IN T WHERE t.A = 2").column("B") == [
        "new"
    ]
    s.close()
    db.close()


def test_read_your_own_writes_in_snapshot_txn():
    db = make_db()
    s = db.session(name="writer")
    with s.transaction(isolation="snapshot"):
        s.execute("INSERT INTO T VALUES (7, 'mine')")
        s.execute("UPDATE T t SET B = 'patched' WHERE t.A = 1")
        s.execute("DELETE FROM T t WHERE t.A = 0")
        assert read_a(s) == [1, 2, 3, 4, 7]
        assert s.execute(
            "SELECT t.B FROM t IN T WHERE t.A = 1"
        ).column("B") == ["patched"]
    assert read_a(s) == [1, 2, 3, 4, 7]
    s.close()
    db.close()


def test_first_committer_wins_on_update():
    db = make_db()
    s = db.session(name="loser")
    with pytest.raises(SerializationError):
        with s.transaction(isolation="snapshot"):
            read_a(s)  # pin the snapshot's view of T
            db.execute("UPDATE T t SET B = 'first' WHERE t.A = 0")
            s.execute("UPDATE T t SET B = 'second' WHERE t.A = 0")
    # the conflicting transaction rolled back; the first commit survives
    assert db.query("SELECT t.B FROM t IN T WHERE t.A = 0").column("B") == [
        "first"
    ]
    assert db.verify() == []
    s.close()
    db.close()


def test_first_committer_wins_on_delete():
    db = make_db()
    s = db.session(name="loser")
    with pytest.raises(SerializationError):
        with s.transaction(isolation="snapshot"):
            read_a(s)
            db.execute("DELETE FROM T t WHERE t.A = 0")
            # the tuple vanished under the snapshot: still a serialization
            # failure, not a silent zero-row update
            s.execute("UPDATE T t SET B = 'late' WHERE t.A = 0")
    assert db.verify() == []
    s.close()
    db.close()


@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize(
    "statement",
    [
        "UPDATE T t SET A = 9 WHERE t.A = 0",
        "DELETE z FROM x IN T, z IN x.S WHERE x.A = 0 AND z.K = 1",
        "INSERT INTO x.S FROM x IN T WHERE x.A = 0 VALUES (3, 'c')",
        "UPDATE z FROM x IN T, z IN x.S SET V = 'late' WHERE x.A = 0",
    ],
)
def test_first_committer_wins_on_partial_dml(statement, indexed):
    """Partial DML selects its rows from the pinned snapshot too: a row
    deleted by a later commit is a conflict, not a silent zero-row write."""
    db = Database(mvcc=True)
    db.execute("CREATE TABLE T (A INT, S TABLE OF (K INT, V STRING))")
    for i in range(3):
        db.execute(f"INSERT INTO T VALUES ({i}, {{(1, 'a'), (2, 'b')}})")
    if indexed:
        db.execute("CREATE INDEX T_A ON T (A)")
    s = db.session(name="loser")
    with pytest.raises(SerializationError):
        with s.transaction(isolation="snapshot"):
            s.execute("SELECT x.A FROM x IN T")
            db.execute("DELETE FROM T t WHERE t.A = 0")
            s.execute(statement)
    assert sorted(db.query("SELECT x.A FROM x IN T").column("A")) == [1, 2]
    assert db.verify() == []
    s.close()
    db.close()


def test_concurrent_statement_writes_are_read_committed():
    """Unpinned (statement) snapshots refresh at the WAL token, so plain
    autocommit writes always update the latest committed tuple."""
    db = make_db()
    a = db.session(name="a")
    b = db.session(name="b")
    a.execute("UPDATE T t SET A = 50 WHERE t.A = 0")
    b.execute("UPDATE T t SET A = 51 WHERE t.A = 50")
    assert read_a(a) == [1, 2, 3, 4, 51]
    a.close()
    b.close()
    db.close()


def test_isolation_argument_validation():
    db = make_db()
    s = db.session()
    with pytest.raises(ExecutionError):
        s.transaction(isolation="serializable")
    s.close()
    db.close()
    plain = Database()
    p = plain.session()
    with pytest.raises(ExecutionError):
        p.transaction(isolation="snapshot")
    # the default on a 2PL database stays 2PL
    with p.transaction() as txn:
        assert txn.isolation == "2pl"
    p.close()
    plain.close()


# ---------------------------------------------------------------------------
# ASOF / MVCC path unification
# ---------------------------------------------------------------------------


def _versioned_db() -> Database:
    db = Database(mvcc=True)
    db.create_table(
        table("V", atomic("K", "INT"), atomic("VAL", "STRING")),
        versioned=True,
    )
    return db


def test_asof_and_snapshot_share_one_read_path(monkeypatch):
    """Both ``ASOF t`` and MVCC snapshot scans must route through
    ``repro.mvcc.read.snapshot_roots`` + ``interval_contains``."""
    db = _versioned_db()
    tid = db.insert("V", {"K": 1, "VAL": "old"}, at=10)
    db.update("V", tid, {"VAL": "new"}, at=20)

    roots_axes: list[str] = []
    real_roots = mvcc_read.snapshot_roots
    contains_calls: list[tuple] = []
    real_contains = mvcc_visibility.interval_contains

    def spy_roots(entry, snapshot):
        roots_axes.append(snapshot.axis)
        return real_roots(entry, snapshot)

    def spy_contains(valid_from, valid_to, point):
        contains_calls.append((valid_from, valid_to, point))
        return real_contains(valid_from, valid_to, point)

    monkeypatch.setattr(mvcc_read, "snapshot_roots", spy_roots)
    monkeypatch.setattr(mvcc_visibility, "interval_contains", spy_contains)

    asof = db.query("SELECT v.VAL FROM v IN V ASOF '0001-01-15'")
    assert asof.column("VAL") == ["old"]
    assert roots_axes == ["time"]

    s = db.session(name="reader")
    now = s.execute("SELECT v.VAL FROM v IN V")
    assert now.column("VAL") == ["new"]
    assert roots_axes == ["time", "lsn"]
    assert contains_calls  # the shared predicate decided visibility
    s.close()
    db.close()


def test_asof_boundaries_legacy_path():
    """``valid_from`` is inclusive, ``valid_to`` exclusive, at the exact
    write instants — through the legacy (non-MVCC) temporal path."""
    db = Database()
    db.create_table(
        table("V", atomic("K", "INT"), atomic("VAL", "STRING")),
        versioned=True,
    )
    tid = db.insert("V", {"K": 1, "VAL": "v1"}, at=10)
    tid = db.update("V", tid, {"VAL": "v2"}, at=20)  # COW: new TID
    # before the insert instant: nothing
    assert db.query("SELECT v.VAL FROM v IN V ASOF '0001-01-09'").rows == []
    for point, expected in [(10, "v1"), (19, "v1"), (20, "v2"), (21, "v2")]:
        value = db.query(
            f"SELECT v.VAL FROM v IN V ASOF '0001-01-{point:02d}'"
        ).column("VAL")
        assert value == [expected], f"at {point}"
    db.delete("V", tid, at=25)
    assert db.query("SELECT v.VAL FROM v IN V ASOF '0001-01-24'").column(
        "VAL"
    ) == ["v2"]
    # the delete instant itself is exclusive: the tuple is already gone
    assert db.query("SELECT v.VAL FROM v IN V ASOF '0001-01-25'").rows == []
    db.close()


def test_asof_boundaries_mvcc_path_matches_legacy():
    """The MVCC-routed ASOF read returns exactly what the legacy store
    returns at every boundary instant."""
    legacy = Database()
    mvcc = Database(mvcc=True)
    for db in (legacy, mvcc):
        db.create_table(
            table("V", atomic("K", "INT"), atomic("VAL", "STRING")),
            versioned=True,
        )
        tid = db.insert("V", {"K": 1, "VAL": "v1"}, at=10)
        tid = db.update("V", tid, {"VAL": "v2"}, at=20)  # COW: new TID
        db.delete("V", tid, at=25)
    for point in (9, 10, 15, 19, 20, 24, 25, 26):
        query = f"SELECT v.VAL FROM v IN V ASOF '0001-01-{point:02d}'"
        assert (
            legacy.query(query).column("VAL")
            == mvcc.query(query).column("VAL")
        ), f"diverged at {point}"
    legacy.close()
    mvcc.close()


def test_snapshot_commit_boundary_is_exact():
    """A snapshot at commit N sees N's rows (inclusive) and nothing from
    commit N+1 (exclusive) — the LSN-axis twin of the ASOF boundary."""
    db = make_db()
    s = db.session(name="reader")
    with s.transaction(isolation="snapshot"):
        base = read_a(s)
        db.execute("INSERT INTO T VALUES (42, 'after')")  # commit N+1
        assert read_a(s) == base
    assert 42 in read_a(s)
    s.close()
    db.close()


# ---------------------------------------------------------------------------
# Temporal axis mixing (satellite regression)
# ---------------------------------------------------------------------------


def test_mixing_timestamp_axes_rejected():
    db = Database()
    db.create_table(
        table("V", atomic("K", "INT")), versioned=True
    )
    db.insert("V", {"K": 1}, at=datetime.date(1984, 1, 1))
    with pytest.raises(TemporalError):
        db.insert("V", {"K": 2}, at=10)
    # the original axis still works
    db.insert("V", {"K": 3}, at=datetime.date(1984, 2, 1))
    db.close()


def test_mixing_timestamp_axes_rejected_subtuple(tmp_path):
    path = str(tmp_path / "axis.db")
    schema = table(
        "V",
        atomic("K", "INT"),
        nested("PS", table("PS", atomic("P", "INT"))),
    )
    with Database(path=path) as db:
        db.create_table(schema, versioned=True, versioning="subtuple")
        db.insert("V", {"K": 1, "PS": []}, at=10)
        with pytest.raises(TemporalError):
            db.insert("V", {"K": 2, "PS": []}, at=datetime.date(1984, 1, 1))
        db.save()
    # the axis survives a reopen
    with Database(path=path) as again:
        with pytest.raises(TemporalError):
            again.insert("V", {"K": 3, "PS": []}, at=datetime.date(1984, 1, 1))
        again.insert("V", {"K": 4, "PS": []}, at=30)


# ---------------------------------------------------------------------------
# Version GC
# ---------------------------------------------------------------------------


def test_gc_reclaims_dead_versions():
    db = make_db()
    assert db.mvcc is not None
    for i in range(5):
        db.execute(f"UPDATE T t SET B = 'u{i}' WHERE t.A = {i}")
    db.execute("DELETE FROM T t WHERE t.A = 4")
    # with no active snapshots, the next write's GC pass drains the queue
    db.execute("INSERT INTO T VALUES (10, 'last')")
    assert db.mvcc.gc_backlog() == 0
    assert db.verify() == []
    assert sorted(
        db.query("SELECT t.A FROM t IN T").column("A")
    ) == [0, 1, 2, 3, 10]
    db.close()


def test_gc_waits_for_active_snapshots():
    db = make_db()
    s = db.session(name="pinned")
    with s.transaction(isolation="snapshot"):
        before = read_a(s)
        db.execute("UPDATE T t SET B = 'x' WHERE t.A = 0")
        db.execute("UPDATE T t SET B = 'y' WHERE t.A = 1")
        # the dead versions are pinned by the open snapshot
        assert db.mvcc.gc_backlog() >= 2
        assert read_a(s) == before
    db.execute("INSERT INTO T VALUES (6, 'flush')")
    assert db.mvcc.gc_backlog() == 0
    assert db.verify() == []
    s.close()
    db.close()


def test_mvcc_on_disk_reopen(tmp_path):
    path = str(tmp_path / "mvcc.db")
    with Database(path=path, mvcc=True) as db:
        db.execute("CREATE TABLE T (A INT, B STRING)")
        for i in range(4):
            db.execute(f"INSERT INTO T VALUES ({i}, 'row{i}')")
        db.execute("UPDATE T t SET B = 'patched' WHERE t.A = 0")
        db.execute("DELETE FROM T t WHERE t.A = 3")
        db.save()
    with Database(path=path, mvcc=True) as again:
        assert sorted(
            again.query("SELECT t.A FROM t IN T").column("A")
        ) == [0, 1, 2]
        assert again.query(
            "SELECT t.B FROM t IN T WHERE t.A = 0"
        ).column("B") == ["patched"]
        assert again.verify() == []
        # rebootstrapped: everything visible since commit 0, ready to go
        s = again.session(name="r")
        assert sorted(read_a(s)[:3]) == [0, 1, 2]
        again.execute("INSERT INTO T VALUES (9, 'after reopen')")
        assert 9 in read_a(s)
        s.close()


def test_reopening_without_mvcc_flag_still_works(tmp_path):
    path = str(tmp_path / "plain.db")
    with Database(path=path, mvcc=True) as db:
        db.execute("CREATE TABLE T (A INT)")
        db.execute("INSERT INTO T VALUES (1)")
        db.execute("UPDATE T t SET A = 2 WHERE t.A = 1")
        db.save()
    with Database(path=path) as plain:  # 2PL mode on the same file
        assert plain.query("SELECT t.A FROM t IN T").column("A") == [2]
        assert plain.verify() == []


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_sys_transactions_view():
    db = make_db()
    s = db.session(name="alice")
    with s.transaction(isolation="snapshot"):
        rows = s.execute(
            "SELECT x.SID, x.SESSION, x.ISOLATION, x.PINNED, x.POINT, "
            "x.COMMITTED_LSN FROM x IN SYS.TRANSACTIONS"
        ).to_plain()
        assert len(rows) == 1
        row = rows[0]
        assert row["SESSION"] == "alice"
        assert row["ISOLATION"] == "snapshot"
        assert row["PINNED"] is True
        assert row["POINT"] <= row["COMMITTED_LSN"]
    s.close()
    db.close()


def test_sys_transactions_empty_without_mvcc():
    db = Database()
    db.execute("CREATE TABLE T (A INT)")
    assert db.query("SELECT x.SID FROM x IN SYS.TRANSACTIONS").rows == []
    db.close()


def test_explain_shows_snapshot():
    db = make_db()
    s = db.session(name="alice")
    plan = s.execute("EXPLAIN ANALYZE SELECT t.A FROM t IN T")
    assert "snapshot: lsn=" in plan
    s.close()
    db.close()


def test_shell_transactions_command(capsys=None):
    import io

    from repro.shell import dot_command

    db = make_db()
    s = db.session(name="alice")
    with s.transaction(isolation="snapshot"):
        s.execute("SELECT t.A FROM t IN T")
        out = io.StringIO()
        dot_command(db, ".transactions", out=out)
    text = out.getvalue()
    assert "COMMITTED_LSN" in text and "GC_BACKLOG" in text
    assert "(1 tuple)" in text and "alice" in text and "snapshot" in text
    s.close()
    db.close()
    plain = Database()
    out = io.StringIO()
    dot_command(plain, ".transactions", out=out)
    assert "(0 tuples)" in out.getvalue()  # no MVCC, no snapshots
    plain.close()


def test_server_begin_snapshot():
    from repro.server import AsyncDatabaseServer, LineClient

    db = make_db()
    server = AsyncDatabaseServer(db, port=0)
    server.serve_background()
    host, port = server.address
    try:
        with LineClient(host, port) as client:
            assert client.send("BEGIN SNAPSHOT").strip() == "begin (snapshot)"
            assert "row0" in client.send("SELECT t.B FROM t IN T WHERE t.A = 0")
            assert client.send("COMMIT").strip() == "commit"
            assert "error" in client.send("BEGIN BOGUS")
    finally:
        server.shutdown()
        db.close()
