"""Tests for the database integrity checker (Database.verify)."""

import pytest

from repro.database import Database
from repro.datasets import paper


def healthy_db():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.create_table(paper.EMPLOYEES_1NF_SCHEMA)
    db.insert_many("EMPLOYEES-1NF", (r.to_plain() for r in paper.employees_1nf()))
    db.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    db.create_index("EMP", "EMPLOYEES-1NF", ("EMPNO",))
    return db


def test_healthy_database_verifies_clean():
    db = healthy_db()
    assert db.verify() == []
    assert db.verify("DEPARTMENTS") == []


def test_verify_after_heavy_dml_still_clean():
    db = healthy_db()
    db.execute(
        "INSERT INTO y.MEMBERS FROM x IN DEPARTMENTS, y IN x.PROJECTS "
        "WHERE y.PNO = 17 VALUES (50001, 'Staff')"
    )
    db.execute(
        "UPDATE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS "
        "SET FUNCTION = 'Adviser' WHERE z.EMPNO = 56019"
    )
    db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 417")
    db.execute("UPDATE EMPLOYEES-1NF e SET LNAME = 'Zz' WHERE e.EMPNO = 39582")
    assert db.verify() == []


def test_verify_detects_index_drift():
    db = healthy_db()
    # sabotage: remove an entry from the index behind the database's back
    index = db.catalog.index("FN")
    key_entries = index.search("Consultant")
    assert key_entries
    index.tree.remove("Consultant", key_entries[0])
    problems = db.verify("DEPARTMENTS")
    assert problems and "misses" in problems[0]


def test_verify_detects_flat_index_drift():
    db = healthy_db()
    index = db.catalog.index("EMP")
    tid = index.search(39582)[0]
    index.tree.remove(39582, tid)
    problems = db.verify("EMPLOYEES-1NF")
    assert problems and "EMP" in problems[0]


def test_verify_detects_corrupted_root_record():
    db = healthy_db()
    entry = db.catalog.table("DEPARTMENTS")
    tid = entry.tids[0]
    # stomp on the root record's bytes
    page = db.buffer.fetch(tid.page)
    try:
        flag, payload = page.read(tid.slot)
        page.update(tid.slot, b"\x00" * len(payload), flag)
    finally:
        db.buffer.unpin(tid.page, dirty=True)
    problems = db.verify("DEPARTMENTS")
    assert any("failed to load" in p or "unreadable" in p for p in problems)


def test_verify_detects_lost_heap_tuple():
    db = healthy_db()
    entry = db.catalog.table("EMPLOYEES-1NF")
    victim = entry.tids[0]
    entry.store.delete(victim)  # bypass the catalog
    problems = db.verify("EMPLOYEES-1NF")
    assert any("failed to load" in p or "lost" in p for p in problems)


def test_verify_on_subtuple_versioned_table():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA, versioned=True,
                    versioning="subtuple")
    tid = db.insert("DEPARTMENTS", paper.DEPARTMENTS_ROWS[0], at=1)
    db.update("DEPARTMENTS", tid, {"BUDGET": 7}, at=2)
    db.update(
        "DEPARTMENTS", tid,
        lambda m: m.insert_element([], "EQUIP", {"QU": 1, "TYPE": "X"}),
        at=3,
    )
    assert db.verify() == []
