"""Index-build contracts: indexing an object costs its pages, not its
subtuples.

An NF² index over a subtable path walks each object's Mini Directory down
to the indexed atoms (§4.2).  The object store opens each object once and
walks it inside one read scope, so building the index makes as many
logical reads per object with 24 members per project as with 3, while it
still decodes every member's data subtuple.
"""

from __future__ import annotations

import pytest

from tests.contracts import CONFIGS, MEMBERS, SIZES, measure


def index_member_functions(db) -> None:
    db.create_index("MEMBER_FUNCTION", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    assert db.buffer.pinned_pages == []


@pytest.mark.parametrize("disk, mvcc", CONFIGS)
def test_create_index_reads_are_independent_of_object_size(tmp_path, disk, mvcc):
    small, large = (
        measure(tmp_path, SIZES[0], disk, mvcc, index_member_functions, members=m)
        for m in MEMBERS
    )
    assert small["buffer.logical_reads"] == large["buffer.logical_reads"] > 0
    for counts, members in ((small, MEMBERS[0]), (large, MEMBERS[1])):
        assert counts["storage.objects_opened"] == SIZES[0]
        # two projects per department
        assert counts["storage.data_subtuple_decodes"] == SIZES[0] * 2 * members
