"""Complexity contracts: every O(1) or O(change) claim as a tier-1
size-invariance test.

The paper argues in counts (§4), and the counts are exact, so a claim
that an operation's cost does not grow with the table is tested without a
stopwatch: build DEPARTMENTS at *n* and at 8*n* objects, run the operation
once under ``METRICS``, and compare the counters (:func:`measure`).  A
claim about one object's size compares *m* and 8*m* members per project
instead (``MEMBERS``).
"""

from __future__ import annotations

import pytest

from repro.database import Database
from repro.datasets import DepartmentsGenerator, paper
from repro.obs import METRICS

#: the two table sizes every contract compares
SIZES = (32, 256)

#: the two object sizes (members per project) a per-object contract compares
MEMBERS = (3, 24)

#: {memory, disk + WAL} x {plain, MVCC}
CONFIGS = [
    pytest.param(disk, mvcc, id=f"{where}-{mode}")
    for disk, where in ((False, "memory"), (True, "disk"))
    for mvcc, mode in ((False, "plain"), (True, "mvcc"))
]


def build(
    tmp_path, departments: int, disk: bool, mvcc: bool, members: int = 3
) -> Database:
    """DEPARTMENTS with *departments* objects of two projects with
    *members* members each, and a DNO index."""
    path = (
        str(tmp_path / f"contract-{departments}-{members}.db") if disk else None
    )
    db = Database(path=path, mvcc=mvcc)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    rows = DepartmentsGenerator(
        departments=departments,
        projects_per_department=2,
        members_per_project=members,
        equipment_per_department=1,
    ).rows()
    db.insert_many("DEPARTMENTS", rows)
    db.create_index("DEPT_DNO", "DEPARTMENTS", "DNO")
    return db


def measure(
    tmp_path, departments: int, disk: bool, mvcc: bool, operation, members: int = 3
) -> dict:
    """Run ``operation(db)`` once on a fresh database of *departments*
    objects (see :func:`build`); return the exact counters it moved
    (``METRICS`` totals plus ``wal.bytes``, the log bytes it appended)."""
    db = build(tmp_path, departments, disk, mvcc, members)
    try:
        wal_before = db.wal.bytes_appended if db.wal is not None else 0
        METRICS.clear()
        METRICS.enable()
        try:
            operation(db)
            counts = METRICS.totals()
        finally:
            METRICS.disable()
            METRICS.clear()
        wal_after = db.wal.bytes_appended if db.wal is not None else 0
        counts["wal.bytes"] = wal_after - wal_before
        return counts
    finally:
        db.close()
