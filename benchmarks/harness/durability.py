"""Durability probe: do acknowledged writes survive a crash?

Killing a process leaves the operating system's cache intact, so the probe
discards unflushed bytes itself: the first ``PROBE_OPS`` statements of the
``write_commit`` tape run against a copy of the data set opened through
``repro.wal.faults`` (page writes and log appends are staged in memory
until synced), a ``CrashClock`` kills the engine at a seed-derived I/O
event — possibly tearing the write in flight — and a plain ``Database``
reopens the files and replays the log.  Every statement acknowledged
before the crash must be readable afterwards.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import time

import dataset
import workloads
from oracle import Oracle

PROBE_OPS = 200


def probe(directory: str, data, seed: int) -> dict:
    """Crash and recover the freshly built data set in *directory* (the
    files are consumed)."""
    from repro.database import Database
    from repro.storage.pagedfile import DiskPagedFile
    from repro.wal.faults import CrashClock, CrashPoint, FaultyPagedFile, FaultyWalIO

    path = os.path.join(directory, dataset.DB_FILE)
    spec = workloads.WORKLOADS["write_commit"]
    rng = random.Random(f"crash/{seed}")
    clock = CrashClock(countdown=None, torn=rng.random() < 0.5)
    pages = FaultyPagedFile(DiskPagedFile(path), clock)
    log = FaultyWalIO(path + ".wal", clock)
    acked = []
    in_flight = None
    try:
        db = Database(
            path, buffer_capacity=spec.buffer_pages, pagedfile=pages, wal_io=log
        )
        # armed after open: the crash falls among the statements (~5 I/O
        # events each), or after the last one when the draw is large
        clock.countdown = rng.randrange(20, 6 * PROBE_OPS)
        for op in itertools.islice(workloads.tape(spec, seed), PROBE_OPS):
            in_flight = op
            db.execute(op.sql)
            acked.append(op)
            in_flight = None
    except CrashPoint:
        pass
    # the process is gone, with or without a CrashPoint: drop what it had
    # staged but not synced
    pages.abandon()
    log.abandon()

    started = time.perf_counter()
    recovered = Database(path, buffer_capacity=spec.buffer_pages)
    reopen_ms = (time.perf_counter() - started) * 1000.0
    try:
        lost = _lost(recovered, data, acked, in_flight)
        recovery = recovered.last_recovery
    finally:
        recovered.close()
    shutil.rmtree(directory, ignore_errors=True)
    return {
        "acked": len(acked),
        "acked_lost": lost,
        "crashed_on": clock.crashed_on or "kill after last statement",
        "reopen_ms": reopen_ms,
        "recover_records": recovery.records_scanned if recovery else 0,
    }


def _lost(db, data, acked, in_flight) -> int:
    """Facts missing after recovery.  The statement in flight at the crash
    was never acknowledged: it may have committed or not."""
    without = Oracle(data)
    for op in acked:
        without.apply(op)
    errors = without.state_errors(db)
    if errors and in_flight is not None:
        with_it = Oracle(data)
        for op in acked + [in_flight]:
            with_it.apply(op)
        errors = min(errors, with_it.state_errors(db))
    return errors
