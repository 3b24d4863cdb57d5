"""Shared fixtures: databases loaded with the paper's tables."""

import pytest

from repro.database import Database
from repro.datasets import paper


def load_paper_tables(db: Database) -> None:
    """Create and populate Tables 1-8 (both the NF2 and the 1NF views)."""
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.create_table(paper.REPORTS_SCHEMA)
    db.insert_many("REPORTS", paper.REPORTS_ROWS)
    for schema, value in [
        (paper.DEPARTMENTS_1NF_SCHEMA, paper.departments_1nf()),
        (paper.PROJECTS_1NF_SCHEMA, paper.projects_1nf()),
        (paper.MEMBERS_1NF_SCHEMA, paper.members_1nf()),
        (paper.EQUIP_1NF_SCHEMA, paper.equip_1nf()),
        (paper.EMPLOYEES_1NF_SCHEMA, paper.employees_1nf()),
    ]:
        db.create_table(schema)
        db.insert_many(schema.name, (row.to_plain() for row in value))


def parity_database(**kwargs) -> Database:
    """The paper's tables plus a flat EMP table (with NULL salaries) and
    DOCS, whose ordered AUTHORS subtable serves subscripts: the database
    the engine-versus-reference tests query."""
    db = Database(**kwargs)
    load_paper_tables(db)
    db.execute("CREATE TABLE EMP (ENAME STRING, DEPT STRING, SAL INT)")
    db.insert_many(
        "EMP",
        (
            {
                "ENAME": f"emp-{i:03d}",
                "DEPT": f"d{i % 5}",
                "SAL": None if i % 11 == 0 else 30000 + i * 500,
            }
            for i in range(40)
        ),
    )
    db.execute("CREATE TABLE DOCS (ID INT, AUTHORS LIST OF (NAME STRING))")
    db.insert("DOCS", {"ID": 1, "AUTHORS": [{"NAME": "Jones"}, {"NAME": "Adams"}]})
    db.insert("DOCS", {"ID": 2, "AUTHORS": [{"NAME": "Chen"}]})
    db.insert("DOCS", {"ID": 3, "AUTHORS": []})
    return db


@pytest.fixture
def paper_db() -> Database:
    db = Database()
    load_paper_tables(db)
    return db
