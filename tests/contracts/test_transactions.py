"""Transaction contracts: an explicit transaction costs what it changes.

A one-row explicit UPDATE opens and decodes as much at 256 departments as
at 32; its abort leaves every root TID and t-name where it was and logs
the same bytes at both sizes.
"""

from __future__ import annotations

import pytest

from tests.contracts import CONFIGS, SIZES, build, measure

UPDATE_ONE = "UPDATE DEPARTMENTS x SET BUDGET = 1 WHERE x.DNO = 110"


def update_in_transaction(db) -> None:
    with db.transaction():
        db.execute(UPDATE_ONE)


def abort_update(db) -> None:
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute(UPDATE_ONE)
            raise RuntimeError("roll back")


@pytest.mark.parametrize("disk, mvcc", CONFIGS)
def test_explicit_one_row_update_is_independent_of_table_size(tmp_path, disk, mvcc):
    small, large = (
        measure(tmp_path, n, disk, mvcc, update_in_transaction) for n in SIZES
    )
    for counter in ("storage.objects_opened", "storage.data_subtuple_decodes"):
        assert small[counter] == large[counter] > 0, counter


@pytest.mark.parametrize("disk, mvcc", CONFIGS)
def test_aborted_one_row_transaction_logs_equal_bytes(tmp_path, disk, mvcc):
    small, large = (measure(tmp_path, n, disk, mvcc, abort_update) for n in SIZES)
    assert small["wal.bytes"] == large["wal.bytes"]
    assert (small["wal.bytes"] > 0) is disk


@pytest.mark.parametrize("disk, mvcc", CONFIGS)
def test_rollback_keeps_every_root_tid_and_t_name(tmp_path, disk, mvcc):
    for n in SIZES:
        db = build(tmp_path, n, disk, mvcc)
        try:
            entry = db.catalog.table("DEPARTMENTS")
            roots = list(entry.tids)
            service = db.names("DEPARTMENTS")
            names = [str(service.name_of_object(tid)) for tid in roots]
            before = [db.resolve_name("DEPARTMENTS", name) for name in names]
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.execute(UPDATE_ONE)
                    db.execute("DELETE FROM DEPARTMENTS x WHERE x.DNO = 111")
                    db.execute("INSERT INTO DEPARTMENTS VALUES (9, 1, {}, 0, {})")
                    raise RuntimeError("roll back")
            assert entry.tids == roots
            assert [db.resolve_name("DEPARTMENTS", name) for name in names] == before
            assert db.verify() == []
        finally:
            db.close()
