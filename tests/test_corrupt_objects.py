"""A corrupted complex object fails with a ``repro.errors`` error.

In memory no page checksum intervenes, so flipped bytes in an object's MD
or data page reach the decoder itself.  Whatever the bytes, a full SELECT
either returns rows or raises a :class:`~repro.errors.ReproError` — never
a raw ``IndexError`` or ``struct.error`` from a slot entry or a pointer
list that runs past its page or payload — and it leaves no page pinned.
``verify()`` reports the damage instead of raising it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.datasets import DepartmentsGenerator, paper
from repro.errors import ReproError
from repro.storage.constants import PAGE_SIZE, SLOT_ENTRY_SIZE

FULL_SELECT = (
    "SELECT x.DNO, x.MGRNO, x.PROJECTS, x.BUDGET, x.EQUIP FROM x IN DEPARTMENTS"
)


@pytest.fixture(scope="module")
def departments():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many(
        "DEPARTMENTS",
        DepartmentsGenerator(
            departments=2,
            projects_per_department=2,
            members_per_project=3,
            equipment_per_department=1,
        ).rows(),
    )
    pages = sorted(
        {
            page
            for tid in db.tids("DEPARTMENTS")
            for page in db.open_object("DEPARTMENTS", tid).space.pages
        }
    )
    yield db, pages
    db.close()


@settings(
    max_examples=2000,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_corrupted_object_raises_only_repro_errors(departments, data):
    db, pages = departments
    page_no = data.draw(st.sampled_from(pages))
    with db.buffer.page(page_no, dirty=True) as page:
        original = bytes(page.buffer)
        # flip bits where the page holds something: the header, the
        # records and the slot directory
        used = list(range(page._free_ptr)) + list(
            range(PAGE_SIZE - SLOT_ENTRY_SIZE * page.slot_count, PAGE_SIZE)
        )
        flips = data.draw(
            st.lists(
                st.tuples(st.integers(0, PAGE_SIZE - 1), st.integers(1, 255)),
                min_size=1,
                max_size=4,
            )
        )
        for position, mask in flips:
            page.buffer[used[position % len(used)]] ^= mask
    try:
        try:
            db.execute(FULL_SELECT).to_plain()
        except ReproError:
            pass
        assert isinstance(db.verify(), list)  # reports, never raises
    finally:
        with db.buffer.page(page_no, dirty=True) as page:
            page.buffer[:] = original
    assert db.buffer.pinned_pages == []
