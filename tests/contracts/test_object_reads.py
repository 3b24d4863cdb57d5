"""Object-read contracts: reading a whole object costs its pages, not its
subtuples.

§4.1 clusters a complex object on a small page set.  Decoding it pins
each object page once, so a one-object SELECT makes as many logical reads
with 24 members per project as with 3, while it still decodes every data
subtuple it returns.  No decode leaves a page pinned, also when it fails.
"""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from tests.contracts import CONFIGS, MEMBERS, SIZES, build, measure

ONE_OBJECT = (
    "SELECT x.DNO, x.PROJECTS, x.EQUIP FROM x IN DEPARTMENTS WHERE x.DNO = 110"
)


def read_one_object(db) -> None:
    rows = db.execute(ONE_OBJECT).to_plain()
    assert [row["DNO"] for row in rows] == [110]
    assert db.buffer.pinned_pages == []


@pytest.mark.parametrize("disk, mvcc", CONFIGS)
def test_one_object_read_is_independent_of_object_size(tmp_path, disk, mvcc):
    small, large = (
        measure(tmp_path, SIZES[0], disk, mvcc, read_one_object, members=m)
        for m in MEMBERS
    )
    assert small["buffer.logical_reads"] == large["buffer.logical_reads"] > 0
    # every data subtuple is still decoded: the department, its equipment,
    # two projects and their members
    for counts, members in ((small, MEMBERS[0]), (large, MEMBERS[1])):
        assert counts["storage.data_subtuple_decodes"] == 4 + 2 * members


@pytest.mark.parametrize("disk, mvcc", CONFIGS)
def test_a_failed_decode_leaves_no_page_pinned(tmp_path, disk, mvcc):
    db = build(tmp_path, SIZES[0], disk, mvcc)
    try:
        tid = db.tids("DEPARTMENTS")[0]
        obj = db.open_object("DEPARTMENTS", tid)
        # corrupt the second subtable's MD subtuple: the decode has pinned
        # the object's MD page by the time it meets it
        target = obj.space.translate(obj.decoded.subtables[1].md)
        with db.buffer.page(target.page, dirty=True) as page:
            _flag, payload = page.read(target.slot)
            page.update(target.slot, b"\xff" * len(payload))
        with pytest.raises(StorageError, match="not an MD subtuple"):
            db.open_object("DEPARTMENTS", tid)
        assert db.buffer.pinned_pages == []
    finally:
        db.close()
