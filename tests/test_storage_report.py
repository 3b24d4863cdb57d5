"""Tests for the storage columns of SYS.TABLES and the shell's .storage/.verify."""

import io

from repro.database import Database
from repro.datasets import DepartmentsGenerator, paper
from repro.shell import dot_command

STORAGE = (
    "SELECT t.NAME, t.KIND, t.TUPLES, t.PAGES, t.BYTES_USED, t.FILL_FACTOR, "
    "t.MD_PAGES, t.DATA_PAGES, t.MD_SUBTUPLES, t.DATA_SUBTUPLES "
    "FROM t IN SYS.TABLES"
)


def storage(db):
    return {row["NAME"]: row for row in db.query(STORAGE).to_plain()}


def test_storage_report_shape(paper_db):
    report = storage(paper_db)
    departments = report["DEPARTMENTS"]
    assert departments["KIND"] == "nested"
    assert departments["TUPLES"] == 3
    assert departments["PAGES"] > 0
    assert departments["MD_PAGES"] >= 1
    assert departments["DATA_PAGES"] >= 1
    # SS3: dept 314 has 5 MD subtuples (2 projects), 218 and 417 have 4 each
    assert departments["MD_SUBTUPLES"] == 13
    assert departments["DATA_SUBTUPLES"] > 0
    employees = report["EMPLOYEES-1NF"]
    assert employees["KIND"] == "flat"
    assert employees["TUPLES"] == 20
    assert 0 < employees["BYTES_USED"] <= employees["PAGES"] * 4096
    assert 0 < employees["FILL_FACTOR"] <= 1
    # the MD/data split exists for NF² tables only
    assert employees["MD_PAGES"] is None and employees["MD_SUBTUPLES"] is None


def test_storage_report_scales_with_data():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    empty = storage(db)["DEPARTMENTS"]
    assert empty["FILL_FACTOR"] == 0.0 and empty["MD_PAGES"] is None
    db.insert_many(
        "DEPARTMENTS",
        DepartmentsGenerator(departments=20, projects_per_department=4,
                             members_per_project=10).rows(),
    )
    large = storage(db)["DEPARTMENTS"]
    assert large["PAGES"] > max(2, empty["PAGES"])
    # every object's page list holds at least its root MD page
    assert large["MD_PAGES"] >= 20


def test_storage_report_subtuple_versioned():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA, versioned=True,
                    versioning="subtuple")
    tid = db.insert("DEPARTMENTS", paper.DEPARTMENTS_ROWS[0], at=1)
    db.update("DEPARTMENTS", tid, {"BUDGET": 5}, at=2)
    report = storage(db)["DEPARTMENTS"]
    assert report["TUPLES"] == 1
    assert report["MD_PAGES"] is not None
    # subtuple versioning keeps no per-object subtuple statistics
    assert report["MD_SUBTUPLES"] is None and report["DATA_SUBTUPLES"] is None


def test_shell_storage_and_verify(paper_db):
    out = io.StringIO()
    dot_command(paper_db, ".storage", out=out)
    text = out.getvalue()
    assert "DEPARTMENTS" in text and "MD_SUBTUPLES" in text and "13" in text
    out = io.StringIO()
    dot_command(paper_db, ".verify", out=out)
    assert "consistent" in out.getvalue()
