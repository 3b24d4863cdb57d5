"""Concurrent sessions: lock manager semantics, session isolation, the
multi-client server, and the executor/buffer regression fixes that rode
along with the concurrency work.

The multi-threaded tests follow one discipline: every cross-thread
ordering is enforced with events/joins (never sleeps alone), and every
assertion is about a *serializable outcome* — some serial order of the
committed statements must explain the observed state.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.concurrency.locks import Latch, LockManager, LockMode, compatible
from repro.database import Database
from repro.errors import (
    ConcurrencyError,
    DeadlockError,
    ExecutionError,
    LockTimeoutError,
)
from repro.query.executor import _aggregate, compare, masked_match
from repro.storage.pagedfile import DiskPagedFile
from repro.wal.faults import CrashClock, CrashPoint, FaultyPagedFile, FaultyWalIO


# ---------------------------------------------------------------------------
# LockManager unit semantics
# ---------------------------------------------------------------------------


def test_compatibility_matrix():
    IS, IX, S, X = LockMode.IS, LockMode.IX, LockMode.S, LockMode.X
    assert compatible(IS, IS) and compatible(IS, IX) and compatible(IS, S)
    assert not compatible(IS, X)
    assert compatible(IX, IS) and compatible(IX, IX)
    assert not compatible(IX, S) and not compatible(IX, X)
    assert compatible(S, IS) and compatible(S, S)
    assert not compatible(S, IX) and not compatible(S, X)
    for held in (IS, IX, S, X):
        assert not compatible(X, held)


def test_lock_grant_covering_and_reacquire():
    lm = LockManager()
    txn = lm.begin("t")
    resource = ("table", "T")
    assert lm.acquire(txn, resource, LockMode.X) is False  # no wait
    # X covers everything: re-acquires are immediate no-waits
    for mode in LockMode:
        assert lm.acquire(txn, resource, mode) is False
    lm.release_all(txn)
    assert lm.stats()["lock.granted"] == 0


def test_shared_locks_coexist_exclusive_blocks():
    lm = LockManager(default_timeout=0.2)
    a, b = lm.begin("a"), lm.begin("b")
    resource = ("object", "T", 1)
    lm.acquire(a, resource, LockMode.S)
    lm.acquire(b, resource, LockMode.S)  # S + S coexist
    with pytest.raises(LockTimeoutError):
        lm.acquire(b, resource, LockMode.X)  # upgrade blocked by a's S
    lm.release_all(a)
    lm.acquire(b, resource, LockMode.X)  # now grantable
    lm.release_all(b)


def test_lock_timeout_is_execution_error_with_clear_message():
    lm = LockManager()
    a, b = lm.begin("holder"), lm.begin("waiter")
    lm.acquire(a, ("table", "T"), LockMode.X)
    with pytest.raises(ExecutionError) as info:
        lm.acquire(b, ("table", "T"), LockMode.S, timeout=0.05)
    assert "timeout" in str(info.value)
    assert isinstance(info.value, LockTimeoutError)
    lm.release_all(a)
    lm.release_all(b)


def test_deadlock_aborts_youngest():
    lm = LockManager(default_timeout=5.0)
    old, young = lm.begin("old"), lm.begin("young")
    assert young > old  # monotonic ids: the later begin is younger
    r1, r2 = ("table", "T1"), ("table", "T2")
    lm.acquire(old, r1, LockMode.X)
    lm.acquire(young, r2, LockMode.X)

    outcome = {}

    def cross(txn, resource, key):
        try:
            lm.acquire(txn, resource, LockMode.X)
            outcome[key] = "granted"
        except DeadlockError:
            outcome[key] = "deadlock"
            lm.release_all(txn)

    t_old = threading.Thread(target=cross, args=(old, r2, "old"))
    t_young = threading.Thread(target=cross, args=(young, r1, "young"))
    t_old.start()
    time.sleep(0.05)  # let the older txn enqueue its wait first
    t_young.start()
    t_young.join(timeout=5)
    t_old.join(timeout=5)
    assert outcome == {"young": "deadlock", "old": "granted"}
    assert lm.deadlocks == 1
    lm.release_all(old)


def test_lock_snapshot_and_stats():
    lm = LockManager()
    txn = lm.begin("snap")
    lm.acquire(txn, ("table", "T"), LockMode.IX)
    rows = lm.snapshot()
    assert len(rows) == 1 and rows[0].granted
    assert "IX" in rows[0].describe() and "snap" in rows[0].describe()
    stats = lm.stats()
    assert stats["lock.granted"] == 1 and stats["lock.waiting"] == 0
    lm.release_all(txn)


def test_latch_counts_contention():
    latch = Latch("probe")
    with latch:
        with latch:  # re-entrant, no contention with itself
            pass
    assert latch.contention == 0
    entered = threading.Event()
    release = threading.Event()

    def holder():
        with latch:
            entered.set()
            release.wait(5)

    thread = threading.Thread(target=holder)
    thread.start()
    entered.wait(5)
    waited = threading.Thread(target=lambda: latch.__enter__() and None)

    def contender():
        with latch:
            pass

    contender_thread = threading.Thread(target=contender)
    contender_thread.start()
    time.sleep(0.05)
    release.set()
    contender_thread.join(timeout=5)
    thread.join(timeout=5)
    assert latch.contention >= 1


# ---------------------------------------------------------------------------
# Sessions on one shared engine
# ---------------------------------------------------------------------------


def _make_db():
    db = Database()
    db.execute("CREATE TABLE T (ID INT, NAME STRING, KIDS TABLE OF (V INT))")
    for i in range(4):
        db.insert("T", {"ID": i, "NAME": f"n{i}", "KIDS": [{"V": i * 10}]})
    return db


def test_session_autocommit_matches_single_user():
    db = _make_db()
    with db.session() as session:
        tid = session.insert("T", {"ID": 9, "NAME": "nine", "KIDS": []})
        assert tid is not None
        rows = session.query("SELECT x.NAME FROM x IN T WHERE x.ID = 9").rows
        assert [r.to_plain() for r in rows] == [{"NAME": "nine"}]
        assert session.locks_held() == []  # autocommit released everything


def test_writer_x_blocks_reader_until_commit():
    db = _make_db()
    writer = db.session(name="writer")
    reader = db.session(name="reader")
    in_txn = threading.Event()
    release = threading.Event()
    result = {}

    def write():
        with writer.transaction():
            writer.execute("UPDATE T x SET NAME = 'held' WHERE x.ID = 0")
            in_txn.set()
            release.wait(5)
        result["committed_at"] = time.monotonic()

    def read():
        in_txn.wait(5)
        rows = reader.query("SELECT x.NAME FROM x IN T WHERE x.ID = 0").rows
        result["read_at"] = time.monotonic()
        result["value"] = rows[0].to_plain()["NAME"]
        result["waited"] = reader.last_lock_waits

    t1 = threading.Thread(target=write)
    t2 = threading.Thread(target=read)
    t1.start()
    t2.start()
    time.sleep(0.15)  # the reader is now blocked behind the writer's X
    release.set()
    t1.join(timeout=10)
    t2.join(timeout=10)
    assert result["value"] == "held"  # read after the commit, never torn
    assert result["read_at"] >= result["committed_at"]
    assert result["waited"] >= 1  # the wait is visible to EXPLAIN accounting
    writer.close()
    reader.close()


def test_two_sessions_deadlock_picks_youngest():
    db = _make_db()
    db.execute("CREATE TABLE U (ID INT)")
    db.insert("U", {"ID": 0})

    older = db.session(name="older")
    younger = db.session(name="younger")
    outcome = {}
    older_read = threading.Event()
    younger_read = threading.Event()

    def run_older():
        try:
            with older.transaction():
                older.query("SELECT x.ID FROM x IN T")  # S locks on T
                older_read.set()
                younger_read.wait(5)
                # needs X on U, held-S by the younger session -> waits
                older.execute("UPDATE U x SET ID = 1 WHERE x.ID = 0")
            outcome["older"] = "committed"
        except ConcurrencyError:
            outcome["older"] = "aborted"

    def run_younger():
        try:
            with younger.transaction():
                younger.query("SELECT x.ID FROM x IN U")  # S locks on U
                younger_read.set()
                older_read.wait(5)
                time.sleep(0.1)  # let the older session start waiting first
                # needs the WAL token, held by the older session -> cycle
                younger.execute("UPDATE T x SET NAME = 'y' WHERE x.ID = 0")
            outcome["younger"] = "committed"
        except ConcurrencyError:
            outcome["younger"] = "aborted"

    t1 = threading.Thread(target=run_older)
    t2 = threading.Thread(target=run_younger)
    t1.start()
    t2.start()
    t1.join(timeout=15)
    t2.join(timeout=15)
    assert outcome == {"older": "committed", "younger": "aborted"}
    # the victim's work was rolled back; the survivor's commit is visible
    assert [r.to_plain() for r in db.query("SELECT x.ID FROM x IN U").rows] == [
        {"ID": 1}
    ]
    assert db.query("SELECT x.NAME FROM x IN T WHERE x.NAME = 'y'").rows == []
    older.close()
    younger.close()


def test_lock_timeout_surfaces_as_execution_error():
    db = _make_db()
    holder = db.session(name="holder")
    waiter = db.session(name="waiter", lock_timeout=0.1)
    entered = threading.Event()
    release = threading.Event()

    def hold():
        with holder.transaction():
            holder.execute("UPDATE T x SET NAME = 'h' WHERE x.ID = 1")
            entered.set()
            release.wait(5)

    thread = threading.Thread(target=hold)
    thread.start()
    entered.wait(5)
    with pytest.raises(ExecutionError) as info:
        waiter.query("SELECT x.NAME FROM x IN T")
    assert "timeout" in str(info.value)
    release.set()
    thread.join(timeout=10)
    # after the holder commits the waiter retries successfully
    assert len(waiter.query("SELECT x.NAME FROM x IN T").rows) == 4
    holder.close()
    waiter.close()


def test_aborted_transaction_must_be_left_before_reuse():
    db = _make_db()
    holder = db.session(name="holder")
    victim = db.session(name="victim", lock_timeout=0.1)
    entered = threading.Event()
    release = threading.Event()

    def hold():
        with holder.transaction():
            holder.execute("UPDATE T x SET NAME = 'h' WHERE x.ID = 2")
            entered.set()
            release.wait(5)

    thread = threading.Thread(target=hold)
    thread.start()
    entered.wait(5)
    with pytest.raises(ConcurrencyError):
        with victim.transaction():
            victim.query("SELECT x.NAME FROM x IN T")  # timeout -> abort
    release.set()
    thread.join(timeout=10)
    # outside the dead scope the session works again
    assert len(victim.query("SELECT x.ID FROM x IN T").rows) == 4
    holder.close()
    victim.close()


def test_explain_analyze_reports_lock_accounting():
    db = _make_db()
    with db.session() as session:
        plan = session.execute("EXPLAIN ANALYZE SELECT x.ID FROM x IN T")
        assert "locks:" in plan
        assert "requests:" in plan


def test_session_transaction_commit_and_rollback():
    db = _make_db()
    session = db.session()
    with session.transaction():
        session.insert("T", {"ID": 100, "NAME": "tx", "KIDS": []})
        session.execute("DELETE FROM T x WHERE x.ID = 0")
    plain = [r.to_plain()["ID"] for r in db.query("SELECT x.ID FROM x IN T").rows]
    assert 100 in plain and 0 not in plain
    with pytest.raises(KeyError):
        with session.transaction():
            session.insert("T", {"ID": 200, "NAME": "doomed", "KIDS": []})
            raise KeyError("rollback")
    plain = [r.to_plain()["ID"] for r in db.query("SELECT x.ID FROM x IN T").rows]
    assert 200 not in plain
    assert session.locks_held() == []
    session.close()


# ---------------------------------------------------------------------------
# Multi-threaded smoke: serial-schedule invariants
# ---------------------------------------------------------------------------


def test_multithreaded_writers_and_readers_smoke():
    db = Database()
    db.execute("CREATE TABLE S (W INT, SEQ INT, KIDS TABLE OF (V INT))")
    writers, per_writer, readers = 4, 12, 3
    errors = []
    observed = []

    def write(worker):
        try:
            with db.session(name=f"w{worker}") as session:
                for seq in range(per_writer):
                    session.insert(
                        "S",
                        {"W": worker, "SEQ": seq, "KIDS": [{"V": seq}]},
                    )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def read(worker):
        try:
            with db.session(name=f"r{worker}") as session:
                for _ in range(8):
                    rows = session.query("SELECT x.W, x.SEQ FROM x IN S").rows
                    seen = [r.to_plain() for r in rows]
                    # no torn rows: every visible row is fully formed
                    assert all(
                        r["W"] is not None and r["SEQ"] is not None for r in seen
                    )
                    observed.append(len(seen))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [
        threading.Thread(target=write, args=(i,)) for i in range(writers)
    ] + [threading.Thread(target=read, args=(i,)) for i in range(readers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    rows = [r.to_plain() for r in db.query("SELECT x.W, x.SEQ FROM x IN S").rows]
    assert len(rows) == writers * per_writer
    assert {(r["W"], r["SEQ"]) for r in rows} == {
        (w, s) for w in range(writers) for s in range(per_writer)
    }
    assert db.verify() == []
    # readers only ever saw monotonically completable prefixes
    assert all(0 <= count <= writers * per_writer for count in observed)


def test_interleaved_transactions_commit_durably_on_disk(tmp_path):
    path = str(tmp_path / "two.db")
    db = Database(path=path)
    db.execute("CREATE TABLE D (ID INT, TAG STRING)")
    barrier = threading.Barrier(2, timeout=10)
    errors = []

    def work(worker):
        try:
            with db.session(name=f"s{worker}") as session:
                barrier.wait()
                for round_no in range(5):
                    with session.transaction():
                        session.insert(
                            "D", {"ID": worker * 100 + round_no, "TAG": "a"}
                        )
                        session.insert(
                            "D", {"ID": worker * 100 + round_no + 50, "TAG": "b"}
                        )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    db.save()
    db.close()

    recovered = Database(path=path)
    try:
        ids = sorted(
            r.to_plain()["ID"]
            for r in recovered.query("SELECT x.ID FROM x IN D").rows
        )
        expected = sorted(
            w * 100 + r + off for w in range(2) for r in range(5) for off in (0, 50)
        )
        assert ids == expected
        assert recovered.verify() == []
    finally:
        recovered.close()


def test_concurrent_crash_recovers_only_committed_work(tmp_path):
    """Two sessions write under fault injection; the crash kills the
    'process'; recovery must replay exactly the acknowledged commits."""
    path = str(tmp_path / "crash.db")
    clock = CrashClock(countdown=None)
    setup = Database(
        path=path,
        pagedfile=FaultyPagedFile(DiskPagedFile(path), clock),
        wal_io=FaultyWalIO(path + ".wal", clock),
    )
    setup.execute("CREATE TABLE C (ID INT)")
    warmup = clock.ops
    setup.close()

    clock = CrashClock(countdown=warmup + 40)
    faulty = FaultyPagedFile(DiskPagedFile(path), clock)
    wal_io = FaultyWalIO(path + ".wal", clock)
    db = Database(path=path, pagedfile=faulty, wal_io=wal_io)
    acked: set[int] = set()
    attempted: set[int] = set()
    acked_latch = threading.Lock()

    def write(worker):
        try:
            with db.session(name=f"c{worker}") as session:
                for seq in range(200):
                    rowid = worker * 1000 + seq
                    with acked_latch:
                        attempted.add(rowid)
                    session.insert("C", {"ID": rowid})
                    with acked_latch:
                        acked.add(rowid)
        except (CrashPoint, ExecutionError):
            pass  # the process died under this session

    threads = [threading.Thread(target=write, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert clock.dead, "the workload should have hit the crash point"
    faulty.abandon()
    wal_io.abandon()

    recovered = Database(path=path)
    try:
        assert recovered.verify() == []
        got = {
            r.to_plain()["ID"]
            for r in recovered.query("SELECT x.ID FROM x IN C").rows
        }
        # every acknowledged insert survived; nothing appears that was
        # never attempted; in-flight rows may go either way
        assert acked <= got, f"lost acknowledged rows: {sorted(acked - got)}"
        assert got <= attempted, f"phantom rows: {sorted(got - acked)}"
    finally:
        recovered.close()


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------


def _start_server(db):
    from repro.server import AsyncDatabaseServer

    server = AsyncDatabaseServer(db, port=0)
    server.serve_background()
    return server


def test_server_two_clients_share_one_database():
    from repro.server import LineClient

    db = _make_db()
    server = _start_server(db)
    host, port = server.address
    try:
        with LineClient(host, port) as a, LineClient(host, port) as b:
            assert "affected" in a.send("INSERT INTO T VALUES (7, 'seven', {})")
            out = b.send("SELECT x.NAME FROM x IN T WHERE x.ID = 7")
            assert "seven" in out
            # dot-commands ride the same wire
            assert "GRANTED" in a.send(".locks")  # SYS.LOCKS rows
            assert "T" in b.send(".tables")
            # errors keep the connection usable
            assert a.send("SELEKT nope").startswith("error:")
            assert "affected" in a.send("DELETE FROM T x WHERE x.ID = 7")
    finally:
        server.shutdown()


def test_server_transactions_roll_back_on_disconnect():
    from repro.server import LineClient

    db = _make_db()
    server = _start_server(db)
    host, port = server.address
    try:
        client = LineClient(host, port)
        assert client.send("BEGIN").strip() == "begin"
        client.send("INSERT INTO T VALUES (42, 'ghost', {})")
        client.close()  # vanish mid-transaction
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            rows = db.query("SELECT x.ID FROM x IN T WHERE x.ID = 42").rows
            if rows == [] and db.locks.stats()["lock.granted"] == 0:
                break
            time.sleep(0.05)
        assert db.query("SELECT x.ID FROM x IN T WHERE x.ID = 42").rows == []
        with LineClient(host, port) as other:
            assert "begin" in other.send("BEGIN")
            assert "affected" in other.send(
                "INSERT INTO T VALUES (43, 'kept', {})"
            )
            assert "commit" in other.send("COMMIT")
        assert len(db.query("SELECT x.ID FROM x IN T WHERE x.ID = 43").rows) == 1
    finally:
        server.shutdown()


def test_lock_metrics_exported():
    obs.enable()
    try:
        db = _make_db()
        holder = db.session(name="m-holder")
        waiter = db.session(name="m-waiter", lock_timeout=0.05)
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with holder.transaction():
                holder.execute("UPDATE T x SET NAME = 'm' WHERE x.ID = 3")
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=hold)
        thread.start()
        entered.wait(5)
        with pytest.raises(ExecutionError):
            waiter.query("SELECT x.NAME FROM x IN T")
        release.set()
        thread.join(timeout=10)
        totals = obs.METRICS.totals()
        assert totals.get("lock.waits", 0) >= 1
        assert totals.get("lock.timeouts", 0) >= 1
        holder.close()
        waiter.close()
    finally:
        obs.disable()


# ---------------------------------------------------------------------------
# Satellite regressions: executor comparison / aggregate / masked match
# ---------------------------------------------------------------------------


def test_compare_incomparable_operands_two_valued():
    # bool vs number: distinct types are never equal, so <> must hold
    assert compare("<>", True, 1) is True
    assert compare("<>", False, 0) is True
    assert compare("=", True, 1) is False
    # NULLs stay absorbing for every operator
    assert compare("<>", None, 1) is False
    assert compare("=", None, None) is False


def test_compare_table_vs_atom_not_equal(paper_db):
    from repro.model.values import TableValue

    dept = paper_db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE x.DNO = 417"
    )
    assert isinstance(dept, TableValue)
    assert compare("<>", dept, 417) is True
    assert compare("=", dept, 417) is False
    # table-vs-table comparison is untouched
    assert compare("=", dept, dept) is True


def test_compare_same_type_semantics_unchanged():
    assert compare("=", 1, 1.0) is True
    assert compare("<>", "a", "b") is True
    assert compare("<", 1, 2) is True
    with pytest.raises(ExecutionError):
        compare("<", 1, "x")


def test_aggregate_heterogeneous_raises_execution_error():
    with pytest.raises(ExecutionError) as info:
        _aggregate("SUM", [1, "two", 3])
    assert "SUM" in str(info.value)
    with pytest.raises(ExecutionError):
        _aggregate("MIN", [1, "two"])
    with pytest.raises(ExecutionError):
        _aggregate("MAX", ["a", 2])
    # homogeneous inputs still work
    assert _aggregate("SUM", [1, 2, 3]) == 6
    assert _aggregate("MIN", ["a", "b"]) == "a"


def test_masked_match_non_string_subject_does_not_match():
    assert masked_match("*x*", 42) is False
    assert masked_match("*", None) is False
    assert masked_match("?", True) is False
    assert masked_match("*x*", "prefix") is True


def test_contains_full_query_path_with_nulls():
    db = Database()
    db.execute("CREATE TABLE W (ID INT, TXT STRING)")
    db.insert("W", {"ID": 1, "TXT": "alpha particle"})
    db.insert("W", {"ID": 2, "TXT": None})
    rows = db.query(
        "SELECT x.ID FROM x IN W WHERE x.TXT CONTAINS '*alpha*'"
    ).rows
    assert [r.to_plain() for r in rows] == [{"ID": 1}]
    # negated CONTAINS on a NULL subject: no match either way (two-valued)
    rows = db.query(
        "SELECT x.ID FROM x IN W WHERE x.TXT NOT CONTAINS '*alpha*'"
    ).rows
    assert {r.to_plain()["ID"] for r in rows} == {2}


# ---------------------------------------------------------------------------
# Satellite regression: buffer page() must not dirty untouched frames
# ---------------------------------------------------------------------------


def test_buffer_page_exception_before_mutation_stays_clean(tmp_path):
    from repro.storage.buffer import BufferManager
    from repro.storage.pagedfile import MemoryPagedFile
    from repro.wal.manager import WalManager

    file = MemoryPagedFile()
    wal = WalManager(str(tmp_path / "probe.wal"))
    buffer = BufferManager(file, capacity=4, wal=wal)
    page_no, page = buffer.new_page()
    buffer.unpin(page_no, dirty=True)
    wal.begin()
    wal.log_commit(None, buffer.image_for_log)
    buffer.flush_all()
    assert wal.protected_pages == set()

    with pytest.raises(RuntimeError):
        with buffer.page(page_no, dirty=True) as page:
            raise RuntimeError("failed before touching the page")
    # the frame was never mutated: it must not be dirty, and it must not
    # have entered the WAL's protected (no-steal) set
    assert page_no not in wal.protected_pages
    writes_before = buffer.stats.physical_writes
    buffer.flush_all()
    assert buffer.stats.physical_writes == writes_before
    wal.close()


def test_buffer_page_exception_after_mutation_still_dirty(tmp_path):
    from repro.storage.buffer import BufferManager
    from repro.storage.pagedfile import MemoryPagedFile
    from repro.wal.manager import WalManager

    file = MemoryPagedFile()
    wal = WalManager(str(tmp_path / "probe.wal"))
    buffer = BufferManager(file, capacity=4, wal=wal)
    page_no, page = buffer.new_page()
    buffer.unpin(page_no, dirty=True)
    wal.begin()
    wal.log_commit(None, buffer.image_for_log)
    buffer.flush_all()

    with pytest.raises(RuntimeError):
        with buffer.page(page_no, dirty=True) as page:
            page.buffer[100] = 0xAB  # a real mutation...
            raise RuntimeError("...then a failure")
    # the mutation happened: the frame must stay protected until logged
    assert page_no in wal.protected_pages
    wal.begin()
    wal.log_commit(None, buffer.image_for_log)
    buffer.flush_all()
    assert bytes(file.read_page(page_no))[100] == 0xAB
    wal.close()
