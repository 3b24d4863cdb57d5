"""Randomized crash-recovery fuzzing.

The property: take a random workload of committed operations, crash the
engine at an arbitrary I/O event (optionally tearing the write in
flight), recover — and the recovered database must

* pass its own consistency check (``db.verify() == []``), and
* contain **exactly** the state after some acknowledged prefix of the
  workload: either every operation acknowledged before the crash
  (``snapshots[acked]``) or additionally the one in flight
  (``snapshots[acked + 1]``, when its commit record reached the disk
  before the crash finished the operation).  Nothing in between, nothing
  torn, nothing from a loser.

Each seed first runs the workload against a fault-wrapped engine with a
*free* clock to count its I/O events, then replays it with the countdown
set to a spread of crash points across that range.  Seeds alternate torn
and clean crash modes.  ``REPRO_CRASH_FUZZ_SEEDS`` /
``REPRO_CRASH_FUZZ_POINTS`` scale the matrix (CI runs more points than
the default local run).
"""

import json
import os
import random

import pytest

from repro.database import Database
from repro.errors import DataError
from repro.storage.pagedfile import DiskPagedFile
from repro.wal.faults import CrashClock, CrashPoint, FaultyPagedFile, FaultyWalIO

SEEDS = int(os.environ.get("REPRO_CRASH_FUZZ_SEEDS", "5"))
POINTS = int(os.environ.get("REPRO_CRASH_FUZZ_POINTS", "20"))
FAILURE_DUMP = os.environ.get("REPRO_CRASH_FUZZ_DUMP", "crash-fuzz-failure.json")

FLAT_DDL = "CREATE TABLE FLAT (ID INT, NAME STRING, QTY INT)"
NEST_DDL = (
    "CREATE TABLE NEST (K INT, NOTE STRING, "
    "KIDS TABLE OF (X INT, TAG STRING))"
)
# created first, so dropping and re-creating it changes the table order
SIDE_DDL = "CREATE TABLE SIDE (S INT, LABEL STRING)"


def build_workload(seed):
    """A deterministic list of operations, each one an acknowledged unit
    (a single auto-committed statement or one explicit transaction).

    Besides DML the mix changes the catalog in every way a COMMIT delta
    records: index DDL, a table dropped and re-created in one
    transaction, ALTER ADD, a failing auto-commit statement (the abort
    path) and member deletes that free an object's pages."""
    rng = random.Random(seed)
    ops = []

    def op(fn):
        ops.append(fn)
        return fn

    op(lambda db: db.execute(SIDE_DDL))
    op(lambda db: db.execute(FLAT_DDL))
    op(lambda db: db.execute(NEST_DDL))

    next_id = [0]

    def make_insert_flat():
        rowid = next_id[0]
        next_id[0] += 1
        name = "n%04d" % rng.randrange(10_000)
        qty = rng.randrange(100)

        def run(db):
            db.insert("FLAT", {"ID": rowid, "NAME": name, "QTY": qty})

        return run

    def make_insert_nest():
        key = next_id[0]
        next_id[0] += 1
        kids = [
            {"X": rng.randrange(50), "TAG": "t%d" % rng.randrange(9)}
            for _ in range(rng.randrange(4))
        ]
        note = "note-%d" % rng.randrange(1000)

        def run(db):
            db.insert("NEST", {"K": key, "NOTE": note, "KIDS": kids})

        return run

    def make_update():
        qty = rng.randrange(1000)
        pick = rng.randrange(1_000_000)

        def run(db):
            ids = sorted(r["ID"] for r in db.iterate_table("FLAT"))
            if not ids:
                return
            target = ids[pick % len(ids)]
            db.execute(
                f"UPDATE FLAT x SET QTY = {qty} WHERE x.ID = {target}"
            )

        return run

    def make_delete():
        pick = rng.randrange(1_000_000)

        def run(db):
            ids = sorted(r["ID"] for r in db.iterate_table("FLAT"))
            if not ids:
                return
            target = ids[pick % len(ids)]
            db.execute(f"DELETE FROM FLAT x WHERE x.ID = {target}")

        return run

    def make_txn_commit():
        first, second = make_insert_flat(), make_insert_flat()

        def run(db):
            with db.transaction():
                first(db)
                second(db)

        return run

    def make_txn_rollback():
        doomed = make_insert_flat()

        def run(db):
            try:
                with db.transaction():
                    doomed(db)
                    raise KeyError("rolled back on purpose")
            except KeyError:
                pass

        return run

    def make_insert_big_nest():
        # enough members to spread the object's data over several pages
        key = next_id[0]
        next_id[0] += 1
        kids = [
            {"X": rng.randrange(50), "TAG": "m%02d-" % i + "x" * 60}
            for i in range(120)
        ]

        def run(db):
            db.insert("NEST", {"K": key, "NOTE": "big", "KIDS": kids})

        return run

    def make_delete_members():
        def run(db):
            # the object with the most members: emptying its data pages
            # frees them from the segment
            sizes = [(len(r["KIDS"]), r["K"]) for r in db.iterate_table("NEST")]
            if not sizes:
                return
            target = max(sizes)[1]
            db.execute(
                "DELETE z FROM x IN NEST, z IN x.KIDS "
                f"WHERE x.K = {target}"
            )

        return run

    def make_toggle_index():
        name, table, path = rng.choice(
            [("IDX_FLAT_QTY", "FLAT", "QTY"), ("IDX_NEST_X", "NEST", "KIDS.X")]
        )

        def run(db):
            if name in db.catalog.table(table).indexes:
                db.execute(f"DROP INDEX {name}")
            else:
                db.execute(f"CREATE INDEX {name} ON {table} ({path})")

        return run

    def make_recreate_side():
        value = rng.randrange(100)

        def run(db):
            with db.transaction():
                db.execute("DROP TABLE SIDE")
                db.execute(SIDE_DDL)
                db.insert("SIDE", {"S": value, "LABEL": "s%d" % value})

        return run

    def make_alter_side():
        def run(db):
            # rewrites the table's rows under the new schema
            width = len(db.catalog.table("SIDE").schema.attributes)
            db.execute(f"ALTER TABLE SIDE ADD A{width} INT")

        return run

    def make_failing_insert():
        rowid = next_id[0]
        next_id[0] += 1
        good = {"ID": rowid, "NAME": "kept", "QTY": rng.randrange(100)}

        def run(db):
            # the second row is invalid: the statement fails after the
            # first insert, and its scope commits what memory kept
            with pytest.raises(DataError):
                db.insert_many("FLAT", [good, {"ID": -1, "BOGUS": 0}])

        return run

    choices = [
        (make_insert_flat, 6),
        (make_insert_nest, 3),
        (make_update, 4),
        (make_delete, 2),
        (make_txn_commit, 2),
        (make_txn_rollback, 2),
        (make_insert_big_nest, 2),
        (make_delete_members, 2),
        (make_toggle_index, 2),
        (make_recreate_side, 1),
        (make_alter_side, 1),
        (make_failing_insert, 1),
    ]
    bag = [maker for maker, weight in choices for _ in range(weight)]
    for _ in range(22):
        op(rng.choice(bag)())
    return ops


def state_of(db):
    """Logical contents in table order, with each table's DDL and index
    definitions; rows are order- and TID-independent."""
    from repro.model.ddl import schema_to_ddl

    out = []
    for entry in db.catalog.tables():
        rows = [
            json.dumps(row.to_plain(), sort_keys=True, default=str)
            for row in db.iterate_table(entry.name)
        ]
        indexes = sorted(
            [name, ".".join(index.definition.attribute_path)]
            for name, index in entry.indexes.items()
        )
        out.append([schema_to_ddl(entry.schema), indexes, sorted(rows)])
    return out


def shadow_snapshots(seed):
    """Expected state after each acknowledged prefix, computed on a plain
    in-memory engine (no faults, same deterministic workload)."""
    ops = build_workload(seed)
    db = Database()
    snaps = [state_of(db)]
    for op in ops:
        op(db)
        snaps.append(state_of(db))
    return snaps


def open_faulty(path, clock):
    faulty = FaultyPagedFile(DiskPagedFile(path), clock)
    wal_io = FaultyWalIO(path + ".wal", clock)
    db = Database(
        path=path,
        pagedfile=faulty,
        wal_io=wal_io,
        buffer_capacity=16,
        wal_auto_checkpoint_bytes=16 * 1024,
    )
    return db, faulty, wal_io


def run_until_crash(path, seed, countdown, torn):
    """Run the workload against a faulted engine; returns the number of
    acknowledged operations (crash or clean completion)."""
    ops = build_workload(seed)
    clock = CrashClock(countdown=countdown, torn=torn)
    db = faulty = wal_io = None
    acked = 0
    try:
        db, faulty, wal_io = open_faulty(path, clock)
        for op in ops:
            op(db)
            # an error path may swallow the crash (the WAL poisons itself
            # and the statement's own error surfaces): a process that
            # died during the operation never acknowledged it
            clock.check()
            acked += 1
        db.close()
    except CrashPoint:
        if faulty is not None:
            faulty.abandon()
        if wal_io is not None:
            wal_io.abandon()
    return acked


def count_io_events(tmp_path, seed):
    """Total faulted I/O events in a crash-free run of the workload."""
    path = str(tmp_path / "probe.db")
    clock = CrashClock(countdown=None)
    db, _, _ = open_faulty(path, clock)
    for op in build_workload(seed):
        op(db)
    db.close()
    for suffix in ("", ".wal", ".catalog.json"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    return clock.ops


def crash_points(total, rng):
    if total <= POINTS:
        return list(range(1, total + 1))
    picked = rng.sample(range(1, total + 1), POINTS - 2)
    return sorted(set(picked) | {1, total})


@pytest.mark.parametrize("seed", range(SEEDS))
def test_crash_recovery_fuzz(tmp_path, seed):
    snaps = shadow_snapshots(seed)
    total = count_io_events(tmp_path, seed)
    assert total >= POINTS, "workload too small to be interesting"
    rng = random.Random(10_000 + seed)
    for countdown in crash_points(total, rng):
        torn = (seed + countdown) % 2 == 0
        path = str(tmp_path / f"fuzz-{countdown}.db")
        acked = run_until_crash(path, seed, countdown, torn)
        recovered = Database(path=path)
        try:
            problems = recovered.verify()
            got = state_of(recovered)
            acceptable = snaps[acked : min(acked + 2, len(snaps))]
            ok = problems == [] and got in acceptable
            if not ok:
                with open(FAILURE_DUMP, "w") as handle:
                    json.dump(
                        {
                            "seed": seed,
                            "countdown": countdown,
                            "torn": torn,
                            "acked": acked,
                            "verify_problems": problems,
                            "recovered_state": got,
                            "expected_any_of": acceptable,
                        },
                        handle,
                        indent=2,
                    )
            assert problems == [], (
                f"seed={seed} countdown={countdown} torn={torn}: "
                f"recovered database inconsistent: {problems}"
            )
            assert got in acceptable, (
                f"seed={seed} countdown={countdown} torn={torn} "
                f"acked={acked}: recovered state matches no acknowledged "
                f"prefix (dumped to {FAILURE_DUMP})"
            )
        finally:
            recovered.close()
        # recovered databases stay usable: run one more committed write
        again = Database(path=path)
        again.execute("CREATE TABLE POST (P INT)")
        again.insert("POST", {"P": 1})
        assert again.verify() == []
        again.close()
        for suffix in ("", ".wal", ".catalog.json"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)


def test_torn_crash_points_actually_tear(tmp_path):
    """Sanity check on the harness itself: at least one torn crash point
    leaves a page the recovery path repairs (checksum mismatch)."""
    seed = 0
    total = count_io_events(tmp_path, seed)
    repaired = 0
    for countdown in range(1, total + 1):
        path = str(tmp_path / f"tear-{countdown}.db")
        run_until_crash(path, seed, countdown, torn=True)
        recovered = Database(path=path)
        if recovered.last_recovery is not None:
            repaired += recovered.last_recovery.torn_pages_repaired
        recovered.close()
        for suffix in ("", ".wal", ".catalog.json"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
    assert repaired > 0, "no crash point ever produced a torn page"


def test_crash_at_every_io_step_of_an_aborting_transaction(tmp_path):
    """An explicit transaction rewrites an NF2 object, frees member pages
    and takes a fresh page, then aborts.  Crashed at each I/O event from
    open to close (torn on alternate events), the database reopens in its
    pre-transaction state: the abort logged nothing a replay could apply."""
    import shutil

    def kids(count):
        return [{"X": i, "TAG": "m%03d-" % i + "x" * 60} for i in range(count)]

    base = str(tmp_path / "base.db")
    db = Database(path=base)
    db.execute(NEST_DDL)
    db.execute("CREATE INDEX IDX_NEST_X ON NEST (KIDS.X)")
    for key in (1, 2):
        db.insert("NEST", {"K": key, "NOTE": "kept", "KIDS": kids(120)})
    expected = state_of(db)
    db.close()

    def abort(db):
        with pytest.raises(KeyError):
            with db.transaction():
                db.execute("UPDATE NEST x SET NOTE = 'gone' WHERE x.K = 2")
                db.execute("DELETE z FROM x IN NEST, z IN x.KIDS WHERE x.K = 1")
                db.insert("NEST", {"K": 3, "NOTE": "gone", "KIDS": kids(180)})
                journal = db.catalog.table("NEST").segment.journal
                assert {"a", "f"} <= {kind for kind, _page in journal}
                raise KeyError("rolled back on purpose")

    def run(name, clock):
        path = str(tmp_path / name)
        for suffix in ("", ".wal", ".catalog.json"):
            if os.path.exists(base + suffix):
                shutil.copyfile(base + suffix, path + suffix)
        faulty = FaultyPagedFile(DiskPagedFile(path), clock)
        wal_io = FaultyWalIO(path + ".wal", clock)
        try:
            db = Database(
                path=path, pagedfile=faulty, wal_io=wal_io, buffer_capacity=16
            )
            pages = db._file.page_count
            abort(db)
            clock.check()
            assert db._file.page_count > pages  # the file grew a fresh page
            db.close()
        except CrashPoint:
            faulty.abandon()
            wal_io.abandon()
        return path

    probe = CrashClock(countdown=None)
    run("probe.db", probe)
    assert probe.ops >= 4, probe.ops
    for countdown in range(1, probe.ops + 1):
        path = run(f"crash-{countdown}.db", CrashClock(countdown, torn=countdown % 2 == 0))
        recovered = Database(path=path)
        try:
            assert recovered.verify() == [], countdown
            assert state_of(recovered) == expected, countdown
        finally:
            recovered.close()
