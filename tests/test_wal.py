"""Tests for the durability subsystem: WAL record format, the manager's
commit/abort/checkpoint protocol, redo recovery, torn-page checksums, and
the fsync regressions (DiskPagedFile.close / Database.save)."""

import os

import pytest

from repro.database import Database
from repro.datasets import paper
from repro.errors import BufferError_, StorageError, TornPageError, WalError
from repro.storage.buffer import BufferManager
from repro.storage.constants import PAGE_SIZE
from repro.storage.page import (
    Page,
    checksum_ok,
    clear_checksum,
    get_page_lsn,
    set_page_lsn,
    stamp_checksum,
)
from repro.storage.pagedfile import DiskPagedFile, MemoryPagedFile
from repro.wal import (
    REC_ABORT,
    REC_BEGIN,
    REC_CHECKPOINT,
    REC_COMMIT,
    REC_PAGE_IMAGE,
    WalManager,
    encode_record,
    iter_records,
    recover,
)
from repro.wal.faults import (
    CrashClock,
    CrashPoint,
    FaultyPagedFile,
    FaultyWalIO,
)
from repro.wal.record import (
    decode_catalog,
    decode_page_image,
    encode_catalog,
    encode_page_image,
)


# ---------------------------------------------------------------------------
# record format
# ---------------------------------------------------------------------------


def test_record_roundtrip():
    log = b""
    expected = []
    for rtype, txn, payload in [
        (REC_BEGIN, 1, b""),
        (REC_PAGE_IMAGE, 1, b"\x01" * 40),
        (REC_COMMIT, 1, b"state"),
        (REC_CHECKPOINT, 0, b"cp"),
    ]:
        lsn = len(log)
        log += encode_record(lsn, 0, rtype, txn, payload)
        expected.append((lsn, rtype, txn, payload))
    records = list(iter_records(log))
    assert [(r.lsn, r.type, r.txn, r.payload) for r in records] == expected


def test_record_scan_stops_at_torn_tail():
    log = encode_record(0, 0, REC_BEGIN, 1)
    lsn = len(log)
    log += encode_record(lsn, 0, REC_COMMIT, 1, b"full payload here")
    # a crash mid-append leaves a prefix of the last record
    torn = log[: len(log) - 5]
    records = list(iter_records(torn))
    assert [r.type for r in records] == [REC_BEGIN]


def test_record_scan_rejects_bit_rot():
    log = encode_record(0, 0, REC_COMMIT, 1, b"payload")
    corrupted = bytearray(log)
    corrupted[-1] ^= 0xFF  # flip a payload bit
    assert list(iter_records(corrupted)) == []


def test_record_scan_rejects_misplaced_lsn():
    # a record claiming LSN 999 at offset 0 is garbage (half-overwritten log)
    log = encode_record(999, 0, REC_BEGIN, 1)
    assert list(iter_records(log)) == []


def test_page_image_codec_roundtrip():
    compressible = bytes(PAGE_SIZE)  # zeros compress well
    payload = encode_page_image(7, compressible)
    assert len(payload) < PAGE_SIZE  # actually compressed
    assert decode_page_image(payload) == (7, compressible)
    incompressible = os.urandom(PAGE_SIZE)
    payload = encode_page_image(3, incompressible)
    assert decode_page_image(payload) == (3, incompressible)


def test_catalog_codec_roundtrip():
    state = {"format": 1, "tables": [{"ddl": "CREATE TABLE T (A INT)"}]}
    assert decode_catalog(encode_catalog(state)) == state


# ---------------------------------------------------------------------------
# page checksums + pageLSN
# ---------------------------------------------------------------------------


def test_checksum_stamp_verify_clear():
    buffer = bytearray(PAGE_SIZE)
    Page.format(buffer)
    assert checksum_ok(buffer)  # unstamped pages pass (checksum 0 = skip)
    stamp_checksum(buffer)
    assert checksum_ok(buffer)
    buffer[100] ^= 0xFF
    assert not checksum_ok(buffer)
    clear_checksum(buffer)
    assert checksum_ok(buffer)  # cleared = unverified again


def test_page_lsn_field():
    buffer = bytearray(PAGE_SIZE)
    page = Page.format(buffer)
    assert page.page_lsn == 0
    set_page_lsn(buffer, 12345)
    assert get_page_lsn(buffer) == 12345


def test_buffer_detects_torn_page(tmp_path):
    path = str(tmp_path / "torn.db")
    file = DiskPagedFile(path)
    buffer_mgr = BufferManager(file, checksums=True)
    page_no, _ = buffer_mgr.new_page()
    buffer_mgr.unpin(page_no, dirty=True)
    buffer_mgr.flush_all()
    # tear the page behind the buffer manager's back
    raw = file.read_page(page_no)
    raw[PAGE_SIZE // 2] ^= 0xFF
    file.write_page(page_no, bytes(raw))
    buffer_mgr.invalidate_cache()
    with pytest.raises(TornPageError):
        buffer_mgr.fetch(page_no)
    file.close()


# ---------------------------------------------------------------------------
# WalManager protocol
# ---------------------------------------------------------------------------


def _images(store):
    """A get_image callback over a dict of page images."""

    def get_image(page_no, lsn):
        return store[page_no]

    return get_image


def test_manager_commit_cycle(tmp_path):
    wal = WalManager(str(tmp_path / "x.wal"))
    txn = wal.begin()
    wal.note_dirty(3)
    wal.note_dirty(1)
    assert wal.protected_pages == {1, 3}
    assert not wal.log_commit(
        {"n": 1}, _images({1: bytes(PAGE_SIZE), 3: bytes(PAGE_SIZE)})
    )
    assert wal.protected_pages == set()
    assert not wal.in_txn
    with open(wal.path, "rb") as handle:
        records = list(iter_records(handle.read()))
    assert [r.type for r in records] == [
        REC_BEGIN, REC_PAGE_IMAGE, REC_PAGE_IMAGE, REC_COMMIT,
    ]
    assert all(r.txn == txn for r in records)
    # page images come out in page order
    assert [decode_page_image(r.payload)[0] for r in records[1:3]] == [1, 3]
    wal.close()


def test_manager_convert_abort(tmp_path):
    wal = WalManager(str(tmp_path / "x.wal"))
    wal.begin()
    wal.note_dirty(5)
    successor = wal.convert_abort()
    assert wal.in_txn and wal.protected_pages == {5}  # dirty set inherited
    wal.log_commit({"n": 2}, _images({5: bytes(PAGE_SIZE)}))
    with open(wal.path, "rb") as handle:
        records = list(iter_records(handle.read()))
    assert [r.type for r in records] == [
        REC_BEGIN, REC_ABORT, REC_BEGIN, REC_PAGE_IMAGE, REC_COMMIT,
    ]
    assert records[-1].txn == successor
    wal.close()


def test_manager_checkpoint_truncates(tmp_path):
    wal = WalManager(str(tmp_path / "x.wal"), auto_checkpoint_bytes=100)
    wal.begin()
    wal.note_dirty(0)
    should = wal.log_commit({"n": 1}, _images({0: os.urandom(PAGE_SIZE)}))
    assert should  # log grew past the tiny threshold
    before = wal.stats()["size_bytes"]
    wal.checkpoint({"n": 1})
    after = wal.stats()["size_bytes"]
    assert after < before
    with open(wal.path, "rb") as handle:
        records = list(iter_records(handle.read()))
    assert [r.type for r in records] == [REC_CHECKPOINT]
    assert decode_catalog(records[0].payload) == {"n": 1}
    wal.close()


def test_manager_checkpoint_refused_in_txn(tmp_path):
    wal = WalManager(str(tmp_path / "x.wal"))
    wal.begin()
    with pytest.raises(WalError):
        wal.checkpoint({})
    wal.close()


# ---------------------------------------------------------------------------
# buffer integration: no-steal + WAL-before-data
# ---------------------------------------------------------------------------


def test_no_steal_protects_unlogged_pages(tmp_path):
    wal = WalManager(str(tmp_path / "x.wal"))
    file = MemoryPagedFile()
    pool = BufferManager(file, capacity=2, wal=wal)
    wal.begin()
    pages = []
    for _ in range(2):
        page_no, _ = pool.new_page()
        pool.unpin(page_no, dirty=True)
        pages.append(page_no)
    # both frames hold unlogged dirty pages: flushing them violates
    # WAL-before-data, evicting them violates no-steal
    with pytest.raises(BufferError_, match="WAL-before-data"):
        pool.flush_page(pages[0])
    with pytest.raises(BufferError_, match="protected"):
        pool.new_page()
    # after the commit the pages are logged and evictable again
    wal.log_commit({}, pool.image_for_log)
    pool.flush_all()
    pool.new_page()
    wal.close()


def test_image_for_log_stamps_page_lsn(tmp_path):
    wal = WalManager(str(tmp_path / "x.wal"))
    file = MemoryPagedFile()
    pool = BufferManager(file, capacity=4, wal=wal)
    wal.begin()
    page_no, page = pool.new_page()
    pool.unpin(page_no, dirty=True)
    wal.log_commit({}, pool.image_for_log)
    with pool.page(page_no) as page:
        assert page.page_lsn > 0
    wal.close()


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def _snapshot(tag):
    """A full-snapshot catalog payload (format 1), tagged to tell apart."""
    return {"format": 1, "tables": [], "tag": tag}


def _write_wal(path, records):
    with open(path, "wb") as handle:
        log = b""
        for rtype, txn, payload in records:
            log += encode_record(len(log), 0, rtype, txn, payload)
        handle.write(log)


def test_recover_replays_winners_discards_losers(tmp_path):
    wal_path = str(tmp_path / "x.wal")
    winner_image = os.urandom(PAGE_SIZE)
    loser_image = b"\xee" * PAGE_SIZE
    _write_wal(wal_path, [
        (REC_BEGIN, 1, b""),
        (REC_PAGE_IMAGE, 1, encode_page_image(0, winner_image)),
        (REC_COMMIT, 1, encode_catalog(_snapshot("winner"))),
        (REC_BEGIN, 2, b""),
        (REC_PAGE_IMAGE, 2, encode_page_image(0, loser_image)),
        # no COMMIT: txn 2 is a loser
    ])
    file = MemoryPagedFile()
    result = recover(wal_path, file)
    assert result.committed_txns == 1
    assert result.losers_discarded == 1
    assert result.loser_ids == [2]
    assert result.pages_replayed == 1
    assert result.catalog_state == _snapshot("winner")
    replayed = file.read_page(0)
    clear_checksum(replayed)
    expected = bytearray(winner_image)
    clear_checksum(expected)
    assert replayed == expected
    assert "1 committed txn" in result.summary()


def test_recover_is_idempotent(tmp_path):
    wal_path = str(tmp_path / "x.wal")
    image = os.urandom(PAGE_SIZE)
    _write_wal(wal_path, [
        (REC_BEGIN, 1, b""),
        (REC_PAGE_IMAGE, 1, encode_page_image(2, image)),
        (REC_COMMIT, 1, encode_catalog(_snapshot("only"))),
    ])
    file = MemoryPagedFile()
    first = recover(wal_path, file)
    state = [bytes(file.read_page(n)) for n in range(file.page_count)]
    second = recover(wal_path, file)
    assert first.pages_replayed == second.pages_replayed == 1
    assert [bytes(file.read_page(n)) for n in range(file.page_count)] == state


def test_recover_repairs_torn_page(tmp_path):
    wal_path = str(tmp_path / "x.wal")
    good = os.urandom(PAGE_SIZE)
    _write_wal(wal_path, [
        (REC_BEGIN, 1, b""),
        (REC_PAGE_IMAGE, 1, encode_page_image(0, good)),
        (REC_COMMIT, 1, encode_catalog(_snapshot("only"))),
    ])
    file = MemoryPagedFile()
    file.allocate_page()
    torn = bytearray(good)
    stamp_checksum(torn)
    torn[PAGE_SIZE - 1] ^= 0xFF  # tear it after stamping
    file.write_page(0, bytes(torn))
    result = recover(wal_path, file)
    assert result.torn_pages_repaired == 1
    assert checksum_ok(file.read_page(0))


def test_recover_starts_at_last_checkpoint(tmp_path):
    wal_path = str(tmp_path / "x.wal")
    _write_wal(wal_path, [
        (REC_BEGIN, 1, b""),
        (REC_PAGE_IMAGE, 1, encode_page_image(0, b"\x01" * PAGE_SIZE)),
        (REC_COMMIT, 1, encode_catalog(_snapshot("old"))),
        (REC_CHECKPOINT, 0, encode_catalog(_snapshot("cp"))),
        (REC_BEGIN, 2, b""),
        (REC_COMMIT, 2, encode_catalog(_snapshot("new"))),
    ])
    file = MemoryPagedFile()
    result = recover(wal_path, file)
    assert result.checkpoint_found
    # pre-checkpoint page image is NOT replayed (the data file already has it)
    assert result.pages_replayed == 0
    assert result.catalog_state == _snapshot("new")


def test_recover_without_log_is_noop(tmp_path):
    assert recover(str(tmp_path / "absent.wal"), MemoryPagedFile()) is None


def test_recover_refuses_unknown_catalog_format(tmp_path):
    wal_path = str(tmp_path / "x.wal")
    _write_wal(wal_path, [
        (REC_CHECKPOINT, 0, encode_catalog(_snapshot("cp"))),
        (REC_BEGIN, 1, b""),
        (REC_COMMIT, 1, encode_catalog({"format": 9, "tables": []})),
    ])
    with pytest.raises(WalError, match="unknown catalog record format 9"):
        recover(wal_path, MemoryPagedFile())


def test_recover_refuses_a_delta_without_a_snapshot(tmp_path):
    wal_path = str(tmp_path / "x.wal")
    _write_wal(wal_path, [
        (REC_BEGIN, 1, b""),
        (REC_COMMIT, 1, encode_catalog(
            {"format": 2, "dropped": [], "tables": []}
        )),
    ])
    with pytest.raises(WalError, match="without a snapshot"):
        recover(wal_path, MemoryPagedFile())


def test_legacy_snapshot_commits_recover_to_that_snapshot(tmp_path):
    """A log written before COMMIT records carried deltas — every COMMIT
    a full ``format: 1`` snapshot — still recovers, one snapshot each."""
    path = str(tmp_path / "legacy.db")
    db = Database(path=path)
    snapshots = []
    db.wal.shippers.append(
        lambda pages, delta: snapshots.append(db._catalog_state())
    )
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 218")
    db.execute("CREATE TABLE T (A INT)")
    db.insert("T", {"A": 1})
    expected = _rows(db, "DEPARTMENTS")
    # crash, then rewrite the log as the old format had it
    with open(path + ".wal", "rb") as handle:
        records = list(iter_records(handle.read()))
    legacy = iter(snapshots)
    _write_wal(path + ".wal", [
        (
            r.type,
            r.txn,
            encode_catalog(next(legacy)) if r.type == REC_COMMIT else r.payload,
        )
        for r in records
    ])
    again = Database(path=path)
    assert again.last_recovery.committed_txns == len(snapshots) == 5
    assert again.last_recovery.catalog_state == snapshots[-1]
    assert _rows(again, "DEPARTMENTS") == expected
    assert [row["A"] for row in again.iterate_table("T")] == [1]
    assert again.verify() == []
    again.close()


def test_failing_shipper_is_counted_and_the_commit_stands(tmp_path):
    from repro import obs

    path = str(tmp_path / "ship.db")
    db = Database(path=path)

    def broken(pages, delta):
        raise RuntimeError("subscriber bug")

    db.wal.shippers.append(broken)
    obs.METRICS.enable()
    obs.METRICS.reset()  # counters are process-global
    try:
        db.execute("CREATE TABLE T (A INT)")
        db.insert("T", {"A": 1})
        assert obs.METRICS.totals().get("wal.ship_errors") == 2
    finally:
        obs.METRICS.disable()
    assert db.wal.stats()["ship_errors"] == 2
    assert db.wal.commits == 2
    again = Database(path=path)  # the commits are durable all the same
    assert [row["A"] for row in again.iterate_table("T")] == [1]
    again.close()


# ---------------------------------------------------------------------------
# end-to-end durability through the Database facade
# ---------------------------------------------------------------------------


def _rows(db, table):
    return sorted(
        (row.to_plain() for row in db.iterate_table(table)),
        key=lambda r: sorted(r.items(), key=str),
    )


def test_statements_are_durable_without_save(tmp_path):
    path = str(tmp_path / "wal.db")
    db = Database(path=path)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.execute("UPDATE DEPARTMENTS x SET BUDGET = 99 WHERE x.DNO = 314")
    expected = _rows(db, "DEPARTMENTS")
    # crash: no save(), no close(), no flush
    again = Database(path=path)
    assert again.last_recovery is not None
    assert again.last_recovery.pages_replayed > 0
    assert _rows(again, "DEPARTMENTS") == expected
    assert again.verify() == []
    again.close()


def test_wal_disabled_restores_paper_behaviour(tmp_path):
    path = str(tmp_path / "nowal.db")
    db = Database(path=path, wal=False)
    assert db.wal is None
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    assert not os.path.exists(path + ".wal")
    # without save() nothing persists — the paper's original behaviour
    again = Database(path=path, wal=False)
    assert again.catalog.tables() == []
    again.close()


def test_unsynced_writes_are_lost_without_wal(tmp_path):
    """The fault harness proof: with the WAL off, an engine that crashes
    before fsync loses everything it wrote."""
    path = str(tmp_path / "lost.db")
    clock = CrashClock()  # never crashes; we just abandon at the end
    faulty = FaultyPagedFile(DiskPagedFile(path), clock)
    db = Database(path=path, wal=False, pagedfile=faulty)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.flush()          # pages written ...
    faulty.abandon()    # ... but never synced: the crash discards them
    again = Database(path=path, wal=False)
    assert again.catalog.tables() == []
    again.close()


def test_commit_survives_crash_before_data_sync(tmp_path):
    """Committed work lives in the fsynced log even though not one data
    page reached the file."""
    path = str(tmp_path / "crash.db")
    clock = CrashClock()
    faulty = FaultyPagedFile(DiskPagedFile(path), clock)
    wal_io = FaultyWalIO(path + ".wal", clock)
    db = Database(path=path, pagedfile=faulty, wal_io=wal_io)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    expected = _rows(db, "DEPARTMENTS")
    faulty.abandon()    # data pages vanish
    wal_io.abandon()
    again = Database(path=path)
    assert _rows(again, "DEPARTMENTS") == expected
    assert again.verify() == []
    again.close()


def test_torn_data_write_detected_and_repaired(tmp_path):
    """A crash tearing a page write mid-sector is caught by the checksum
    and repaired from the log on reopen."""
    path = str(tmp_path / "torn.db")
    # run once without a countdown to learn how many I/O events the
    # workload performs, then crash on a late page write
    events = []

    class CountingClock(CrashClock):
        def tick(self, kind):
            events.append(kind)
            return super().tick(kind)

    def workload(db):
        db.create_table(paper.DEPARTMENTS_SCHEMA)
        db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
        db.save()  # flushes pages through the faulty file
        db.execute("UPDATE DEPARTMENTS x SET BUDGET = 5 WHERE x.DNO = 314")
        db.save()

    clock = CountingClock()
    faulty = FaultyPagedFile(DiskPagedFile(path), clock)
    wal_io = FaultyWalIO(path + ".wal", clock)
    db = Database(path=path, pagedfile=faulty, wal_io=wal_io)
    workload(db)
    expected = _rows(db, "DEPARTMENTS")
    db.close()
    last_write = max(
        i for i, kind in enumerate(events) if kind == "write_page"
    )
    for leftover in (path, path + ".wal", path + ".catalog.json"):
        if os.path.exists(leftover):
            os.remove(leftover)

    clock = CrashClock(countdown=last_write + 1, torn=True)
    faulty = FaultyPagedFile(DiskPagedFile(path), clock)
    wal_io = FaultyWalIO(path + ".wal", clock)
    db = Database(path=path, pagedfile=faulty, wal_io=wal_io)
    with pytest.raises(CrashPoint):
        workload(db)
        db.close()
    assert clock.crashed_on == "write_page"
    faulty.abandon()
    wal_io.abandon()

    again = Database(path=path)
    assert _rows(again, "DEPARTMENTS") == expected
    assert again.verify() == []
    again.close()


def test_auto_checkpoint_truncates_log(tmp_path):
    path = str(tmp_path / "auto.db")
    db = Database(path=path, wal_auto_checkpoint_bytes=8 * 1024)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    for _ in range(6):
        db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
        db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO > 0")
    assert db.wal.checkpoints > 1  # the initial one plus auto ones
    assert os.path.getsize(path + ".wal") < 8 * 1024
    db.close()


def test_explicit_checkpoint(tmp_path):
    path = str(tmp_path / "cp.db")
    db = Database(path=path)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    grown = os.path.getsize(path + ".wal")
    db.checkpoint()
    assert os.path.getsize(path + ".wal") < grown
    # after the checkpoint the data file alone carries the state
    again = Database(path=path)
    assert again.last_recovery.pages_replayed == 0
    assert _rows(again, "DEPARTMENTS") == _rows(db, "DEPARTMENTS")
    again.close()
    db.close()


def test_checkpoint_requires_wal():
    with pytest.raises(StorageError):
        Database().checkpoint()


# ---------------------------------------------------------------------------
# fsync regressions (satellite: close/save durability)
# ---------------------------------------------------------------------------


def test_diskpagedfile_close_fsyncs(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
    )
    file = DiskPagedFile(str(tmp_path / "f.db"))
    file.allocate_page()
    file.write_page(0, b"\x42" * PAGE_SIZE)
    synced.clear()
    file.close()
    assert synced, "close() must fsync before releasing the handle"
    file.close()  # idempotent


def test_save_ends_with_sync(tmp_path, monkeypatch):
    """save() must sync the data file before (and the catalog sidecar
    after) the catalog replace — no acknowledged save may sit only in the
    OS page cache."""
    order = []
    real_fsync = os.fsync
    real_replace = os.replace
    monkeypatch.setattr(
        os, "fsync", lambda fd: (order.append("fsync"), real_fsync(fd))[1]
    )
    monkeypatch.setattr(
        os,
        "replace",
        lambda a, b: (order.append("replace"), real_replace(a, b))[1],
    )
    path = str(tmp_path / "s.db")
    db = Database(path=path, wal=False)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    order.clear()
    db.save()
    assert "fsync" in order
    assert order.index("fsync") < order.index("replace"), (
        "data pages must be durable before the catalog points at them"
    )
    # the sidecar itself is fsynced before the atomic rename
    assert "fsync" in order[order.index("replace") - 2 : order.index("replace")]
    db.close()


# ---------------------------------------------------------------------------
# shell integration
# ---------------------------------------------------------------------------


def test_shell_checkpoint_and_wal_commands(tmp_path):
    import io

    from repro.shell import dot_command

    def run(db, line):
        out = io.StringIO()
        assert dot_command(db, line, out=out)
        return out.getvalue()

    wal = (
        "SELECT w.COMMITS, w.SIZE_BYTES, w.SHIP_ERRORS, w.LAST_RECOVERY "
        "FROM w IN SYS.WAL"
    )
    path = str(tmp_path / "sh.db")
    db = Database(path=path)
    db.execute("CREATE TABLE T (A INT)")
    out = run(db, ".wal")
    assert "COMMITS" in out and "SIZE_BYTES" in out and "(1 tuple)" in out
    [row] = db.query(wal).to_plain()
    assert row["COMMITS"] >= 1 and row["SIZE_BYTES"] > 0
    assert row["SHIP_ERRORS"] == 0
    assert row["LAST_RECOVERY"] is None  # a new file: nothing was recovered
    assert "checkpoint complete" in run(db, ".checkpoint")
    db.close()

    # reopening runs recovery; its summary is a SYS.WAL column
    db = Database(path=path)
    [row] = db.query(wal).to_plain()
    assert row["LAST_RECOVERY"] == db.last_recovery.summary()
    assert row["LAST_RECOVERY"].startswith("recovery: scanned")
    assert "recovery: scanned" in run(db, ".wal")
    db.close()

    memory = Database()
    assert "(0 tuples)" in run(memory, ".wal")  # no WAL, no row
    assert "error" in run(memory, ".checkpoint")
