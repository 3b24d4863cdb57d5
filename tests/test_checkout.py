"""Tests for page-level check-out / check-in of complex objects."""

import pytest

from repro.database import Database
from repro.datasets import DepartmentsGenerator, paper
from repro.errors import ExecutionError, StorageError
from repro.model.values import TupleValue
from repro.storage.complex_object import ObjectBundle


def server_db():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    return db


def workstation_db():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    return db


def test_checkout_checkin_roundtrip_across_databases():
    server = server_db()
    workstation = workstation_db()
    tid = server.tids("DEPARTMENTS")[0]
    blob = server.checkout("DEPARTMENTS", tid)
    assert isinstance(blob, bytes) and blob[:4] == b"NF2B"
    new_tid = workstation.checkin("DEPARTMENTS", blob)
    original = server.catalog.table("DEPARTMENTS").store.manager.load(
        tid, paper.DEPARTMENTS_SCHEMA
    )
    imported = workstation.catalog.table("DEPARTMENTS").store.manager.load(
        new_tid, paper.DEPARTMENTS_SCHEMA
    )
    assert imported == original
    # the workstation copy is a first-class object: queryable and editable
    result = workstation.query(
        "SELECT y.PNO FROM x IN DEPARTMENTS, y IN x.PROJECTS"
    )
    assert sorted(result.column("PNO")) == [17, 23]
    workstation.update(
        "DEPARTMENTS", new_tid,
        lambda obj: obj.insert_element([], "EQUIP", {"QU": 1, "TYPE": "CAD"}),
    )
    # the server master is untouched
    assert len(server.query(
        "SELECT v.TYPE FROM x IN DEPARTMENTS, v IN x.EQUIP WHERE x.DNO = 314"
    )) == 3


def test_checkout_large_object():
    gen = DepartmentsGenerator(departments=1, projects_per_department=8,
                               members_per_project=40)
    server = Database()
    server.create_table(paper.DEPARTMENTS_SCHEMA)
    tid = server.insert("DEPARTMENTS", gen.rows()[0])
    blob = server.checkout("DEPARTMENTS", tid)
    workstation = workstation_db()
    new_tid = workstation.checkin("DEPARTMENTS", blob)
    value = TupleValue.from_plain(paper.DEPARTMENTS_SCHEMA, gen.rows()[0])
    assert workstation.catalog.table("DEPARTMENTS").store.manager.load(
        new_tid, paper.DEPARTMENTS_SCHEMA
    ) == value


def test_checkin_maintains_indexes():
    server = server_db()
    workstation = workstation_db()
    workstation.create_index("FN", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    blob = server.checkout("DEPARTMENTS", server.tids("DEPARTMENTS")[0])
    workstation.checkin("DEPARTMENTS", blob)
    assert len(workstation.catalog.index("FN").search("Consultant")) == 1
    assert workstation.verify() == []


def test_bundle_serialization_roundtrip():
    server = server_db()
    entry = server.catalog.table("DEPARTMENTS")
    bundle = entry.store.manager.export_object(entry.tids[1])
    blob = bundle.to_bytes()
    again = ObjectBundle.from_bytes(blob)
    assert again.page_images == bundle.page_images
    assert again.page_roles == bundle.page_roles
    assert again.root_local_page == bundle.root_local_page
    assert again.groups_blob == bundle.groups_blob
    with pytest.raises(StorageError):
        ObjectBundle.from_bytes(b"JUNKJUNK")


def test_checkout_on_flat_table_rejected():
    db = Database()
    db.create_table(paper.EMPLOYEES_1NF_SCHEMA)
    tid = db.insert("EMPLOYEES-1NF", (1, "A", "B", "male"))
    with pytest.raises(ExecutionError):
        db.checkout("EMPLOYEES-1NF", tid)


def test_object_level_access_rejected_under_subtuple_versioning():
    """A subtuple-versioned object is stored as version chains, not as a
    plain object: check-out, check-in and tuple names refuse it up front
    instead of failing on the raw root later."""
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA, versioned=True, versioning="subtuple")
    tid = db.insert("DEPARTMENTS", paper.DEPARTMENTS_ROWS[0])
    with pytest.raises(ExecutionError):
        db.checkout("DEPARTMENTS", tid)
    with pytest.raises(ExecutionError):
        db.checkin("DEPARTMENTS", server_db().checkout("DEPARTMENTS", tid))
    with pytest.raises(ExecutionError):
        db.names("DEPARTMENTS")
