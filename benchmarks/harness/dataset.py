"""Data set D64: generated from a seed, bulk-loaded into one database file.

The plain rows produced here are the single source of truth: the build
loads them into the engine and :mod:`oracle` answers every read from the
same rows in pure Python, so a wrong engine result cannot hide behind a
wrong expectation computed by the engine itself.

``PYTHONPATH=src python3 dataset.py --seed N --out DIR`` is the bulk-load
process: the harness runs it as a subprocess so that the large load-time
buffer pool does not count towards the measured phase's peak memory.
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
from dataclasses import dataclass

DEPARTMENTS = 256
PROJECTS_PER_DEPARTMENT = 4
MEMBERS_PER_PROJECT = 6
#: distinct PNO values.  The first is popular — the first project of every
#: fourth department, 64 departments; the other 63 share the remaining 960
#: projects, 15 or 16 departments each.  So a ``PNO = p`` probe has a
#: light case and a heavy one with 4 times the candidates
PNO_DOMAIN = 64
FIRST_DNO = 100
POPULAR_PNO = 10
GENERATED_REPORTS = 512
#: the flat table, and an archive of the same shape three times as long
FLAT_ROWS = {"EMPFLAT": 800, "EMPARCH": 2400}
FLAT_GROUPS = 16
#: pages of the load-time buffer pool: a single-transaction bulk load under
#: a small no-steal pool raises ``BufferError_: buffer pool exhausted``
LOAD_BUFFER_PAGES = 8192

DB_FILE = "d64.db"
#: everything a database at *path* leaves on disk
DB_SUFFIXES = ("", ".wal", ".catalog.json")


@dataclass(frozen=True)
class Data:
    departments: list
    reports: list
    flat: dict  # table name -> rows

    @property
    def canonical_bytes(self) -> int:
        """Bytes of user data: 8 per number, UTF-8 length per string."""
        return (
            _canonical(self.departments)
            + _canonical(self.reports)
            + _canonical(self.flat)
        )


def _canonical(value) -> int:
    if isinstance(value, dict):
        return sum(_canonical(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_canonical(v) for v in value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    return 8


def _spread_pnos() -> list:
    """PNOs per department, spread over PNO_DOMAIN keys (the generator
    numbers every department's projects 10..13, so any ``PNO = p`` probe
    would select all departments)."""
    regular = itertools.count()
    table = []
    for index in range(DEPARTMENTS):
        row = [] if index % 4 else [POPULAR_PNO]
        while len(row) < PROJECTS_PER_DEPARTMENT:
            row.append(POPULAR_PNO + 1 + next(regular) % (PNO_DOMAIN - 1))
        table.append(row)
    return table


_PNOS = _spread_pnos()


def pno(department_index: int, slot: int) -> int:
    """The PNO of a department's *slot*-th project."""
    return _PNOS[department_index][slot]


def generate(seed: int) -> Data:
    from repro.datasets import DepartmentsGenerator, ReportsGenerator, paper

    departments = DepartmentsGenerator(
        departments=DEPARTMENTS,
        projects_per_department=PROJECTS_PER_DEPARTMENT,
        members_per_project=MEMBERS_PER_PROJECT,
        seed=seed,
    ).rows()
    for index, department in enumerate(departments):
        for slot, project in enumerate(department["PROJECTS"]):
            project["PNO"] = pno(index, slot)
    # the popular project has a consultant in three of every four of its
    # departments, whatever the seed: the generator's coin would put 49 +- 3
    # departments in the answer of conj_index's heavy probe, and move its
    # cost, and p99_ms, by 7 % from seed to seed
    for turn, department in enumerate(departments[::4]):
        members = department["PROJECTS"][0]["MEMBERS"]
        for member in members:
            if member["FUNCTION"] == "Consultant":
                member["FUNCTION"] = "Staff"
        if turn % 4 != 3:
            members[-1]["FUNCTION"] = "Consultant"
    reports = [dict(row) for row in paper.REPORTS_ROWS]
    reports += ReportsGenerator(reports=GENERATED_REPORTS, seed=seed + 1).rows()
    rng = random.Random(seed + 2)
    flat = {}
    for table, rows in FLAT_ROWS.items():
        salaries = rng.sample(range(1000, 1000 + 10 * rows), rows)
        flat[table] = [
            {
                "EMPNO": 20_000 + n,
                "GRP": rng.randrange(FLAT_GROUPS),
                "SAL": salaries[n],  # distinct, so ORDER BY SAL has one answer
                "NAME": f"E{n:05d}",
            }
            for n in range(rows)
        ]
    return Data(departments, reports, flat)


def build(data: Data, directory: str) -> str:
    """Create, bulk load, index and save D64; returns the database path."""
    from repro.database import Database
    from repro.datasets import paper

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, DB_FILE)
    db = Database(path, buffer_capacity=LOAD_BUFFER_PAGES)
    try:
        db.create_table(paper.DEPARTMENTS_SCHEMA)
        db.insert_many("DEPARTMENTS", data.departments)
        db.create_index("DN", "DEPARTMENTS", "DNO")
        db.create_index("BUD", "DEPARTMENTS", "BUDGET")
        db.create_index("PN_HIER", "DEPARTMENTS", "PROJECTS.PNO")
        db.create_index("FN_HIER", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
        db.create_table(paper.REPORTS_SCHEMA)
        db.insert_many("REPORTS", data.reports)
        db.create_text_index("TX_TITLE", "REPORTS", "TITLE")
        for table, rows in data.flat.items():
            db.execute(
                f"CREATE TABLE {table} (EMPNO INT, GRP INT, SAL INT, NAME STRING)"
            )
            db.insert_many(table, rows)
        db.execute("CREATE TABLE EVENTS (SEQ INT, NOTE STRING)")
        db.save()
    finally:
        db.close()
    return path


def stored_bytes(path: str) -> int:
    """Data file + log + catalog sidecar, as they are on disk now."""
    return sum(os.path.getsize(path + suffix) for suffix in DB_SUFFIXES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    build(generate(args.seed), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
