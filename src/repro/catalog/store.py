"""Table stores: the one storage object behind each table.

A 1NF tuple is the degenerate complex object: one data subtuple and no
Mini Directory (Section 4.1).  So every table has one store, a
:class:`HeapStore` (flat) or an :class:`ObjectStore` (nested), and both
answer one method set; the facade never asks which kind it holds.  A
store reads the schema from its catalog entry, so an ALTER, or an abort
that undoes one, leaves no second copy to keep in step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Union

from repro.errors import AccessPathError, ExecutionError, StorageError, TemporalError
from repro.index.manager import FlatIndex, IndexDefinition, NF2Index
from repro.index.text import TextIndex
from repro.model.schema import TableSchema
from repro.model.values import TupleValue
from repro.storage.complex_object import ComplexObjectManager, OpenObject
from repro.storage.heap import HeapFile
from repro.storage.minidirectory import StorageStructure
from repro.storage.subtuple import KIND_DATA, subtuple_kind
from repro.storage.tid import TID

if TYPE_CHECKING:
    from repro.catalog.catalog import TableEntry
    from repro.temporal.subtuple_versions import TemporalObjectManager

#: an UPDATE's changes: top-level atoms, or a callable editing the object
Changes = Union[dict, Callable[[OpenObject], None]]

#: the SYS.TABLES columns of :meth:`ObjectStore.object_split`
_SPLIT = ("MD_PAGES", "DATA_PAGES", "MD_SUBTUPLES", "DATA_SUBTUPLES")


def attach_store(entry: "TableEntry", structure: StorageStructure) -> None:
    """Give *entry* its store: a heap for a flat schema, complex objects
    in *structure* for a nested one.  A subtuple-versioned table also gets
    its temporal manager, through which its store opens objects."""
    if entry.versioning == "subtuple":
        if entry.schema.is_flat:
            raise TemporalError(
                "subtuple versioning applies to NF2 tables; use "
                "versioning='object' for flat tables"
            )
        from repro.temporal.subtuple_versions import TemporalObjectManager

        temporal = TemporalObjectManager(entry.segment, structure)
        entry.temporal_manager = temporal
        entry.store = ObjectStore(entry, temporal._base, temporal)
    elif entry.schema.is_flat:
        entry.store = HeapStore(entry)
    else:
        entry.store = ObjectStore(
            entry, ComplexObjectManager(entry.segment, structure)
        )


class HeapStore(HeapFile):
    """A flat table's store: one heap record per tuple."""

    def __init__(self, entry: "TableEntry"):
        super().__init__(entry.segment, entry.schema)
        self._entry = entry

    @property
    def schema(self) -> TableSchema:
        return self._entry.schema

    def update_in_place(self, tid: TID, changes: Changes) -> TupleValue:
        row = self.revise(self.fetch(tid), changes)
        self.update(tid, row)
        return row

    def revise(self, current: TupleValue, changes: Changes) -> TupleValue:
        if not isinstance(changes, dict):
            raise ExecutionError("flat tables take a mapping of changes")
        return current.replace(**changes)

    def chunks(
        self, needed: Optional[frozenset], batch: int
    ) -> Iterator[tuple[int, dict[str, list]]]:
        """Columnar batches of the current rows, in TID-list order: at
        least *batch* rows each, ending on a page boundary, so a scan pins
        each run of same-page rows once."""
        tids = list(self._entry.tids)
        start, total = 0, len(tids)
        while start < total:
            stop = min(start + batch, total)
            last_page = tids[stop - 1].page
            while stop < total and tids[stop].page == last_page:
                stop += 1
            part = tids[start:stop]
            yield len(part), self.fetch_columns(part, needed)
            start = stop

    def open(self, tid: TID) -> OpenObject:
        raise ExecutionError(f"{self._entry.name!r} is a flat table; fetch its tuples")

    def objects(self, action: str) -> ComplexObjectManager:
        raise ExecutionError(f"{action} applies to NF2 tables")

    def make_index(
        self,
        definition: IndexDefinition,
        fragment_length: Optional[int] = None,
        current_only: bool = False,
    ) -> FlatIndex:
        """A value index over the table's rows.  The heap scan indexes the
        MVCC versions that await GC too, which snapshot readers probe;
        *current_only* indexes the current rows alone."""
        if fragment_length is not None:
            raise AccessPathError(
                "text indexes are defined on NF2 tables in this prototype"
            )
        index = FlatIndex(definition)
        rows = (
            ((tid, self.fetch(tid)) for tid in self._entry.tids)
            if current_only
            else self.scan()
        )
        for tid, row in rows:
            self.index(tid, row, (index,))
        return index

    def index(
        self,
        tid: TID,
        row: Optional[TupleValue] = None,
        indexes: Optional[Iterable[Any]] = None,
    ) -> None:
        """Bring *indexes* (by default all of the table's) up to date for
        the row at *tid*; *row*, when the caller has it, spares a fetch."""
        indexes = self._entry.indexes.values() if indexes is None else indexes
        if not indexes:
            return
        if row is None:
            row = self.fetch(tid)
        for index in indexes:
            index.index_row(tid, row[index.definition.attribute_path[0]])

    def deindex(self, tid: TID) -> None:
        for index in self._entry.indexes.values():
            index.deindex_row(tid)

    def _retained(self) -> set[TID]:
        """The current rows and the versions kept beside them: temporal
        history (version chains) and MVCC versions awaiting GC."""
        entry = self._entry
        keep = set(entry.tids)
        if entry.version_store is not None:
            keep |= set(entry.version_store.all_roots_ever())
        if entry.mvcc is not None:
            keep |= entry.mvcc.live_tids()
        return keep

    def verify(self, loaded: dict[TID, TupleValue]) -> list[str]:
        name = self._entry.name
        scanned = {tid for tid, _row in self.scan()}
        missing = set(self._entry.tids) - scanned
        extra = scanned - self._retained()
        problems = []
        if missing:
            problems.append(f"{name}: heap lost tuples {sorted(missing)}")
        if extra:
            problems.append(f"{name}: heap has orphan tuples {sorted(extra)}")
        return problems

    def sweep_orphans(self) -> None:
        """Reclaim the records of MVCC versions whose GC never ran (a crash
        between commit and collection).  Version chains are not persisted,
        so on reopen a record that is neither current nor temporal history
        is garbage by construction."""
        keep = self._retained()
        for tid, _row in list(self.scan()):
            if tid not in keep:
                self.delete(tid)

    def object_split(self) -> dict:
        return dict.fromkeys(_SPLIT)


class ObjectStore:
    """A nested table's store: one complex object per tuple.  Under
    subtuple versioning objects open through *temporal* as their current
    version."""

    def __init__(
        self,
        entry: "TableEntry",
        manager: ComplexObjectManager,
        temporal: Optional["TemporalObjectManager"] = None,
    ):
        self._entry = entry
        self.manager = manager
        self._temporal = temporal

    @property
    def schema(self) -> TableSchema:
        return self._entry.schema

    def insert(self, value: TupleValue) -> TID:
        return self.manager.store(self.schema, value)

    def fetch(self, tid: TID, lazy: bool = False) -> TupleValue:
        """The object at *tid*.  *lazy* (query reads) decodes the Mini
        Directory now and data subtuples only when a predicate or the
        projection touches them, so index-settled conjuncts never read
        data pages."""
        if self._temporal is not None:
            return self._temporal.load(tid, self.schema)
        if lazy:
            return self.manager.load_lazy(tid, self.schema)
        return self.manager.load(tid, self.schema)

    def delete(self, tid: TID) -> None:
        self.manager.delete(tid, self.schema)

    def open(self, tid: TID) -> OpenObject:
        if self._temporal is not None:
            return self._temporal.open_current(tid, self.schema)
        return self.manager.open(tid, self.schema)

    def objects(self, action: str) -> ComplexObjectManager:
        """The manager that *action* (check-out/in, tuple names) works on;
        a subtuple-versioned object is no plain stored object."""
        if self._temporal is not None:
            raise ExecutionError(f"{action} applies to plain NF2 tables")
        return self.manager

    def update_in_place(self, tid: TID, changes: Changes) -> None:
        obj = self.open(tid)
        if isinstance(changes, dict):
            obj.update_atoms([], changes)
        else:
            changes(obj)

    def revise(self, current: TupleValue, changes: Changes) -> TupleValue:
        """The object *changes* make of *current*; a callable edits a
        scratch copy, stored for the edit and deleted after."""
        if isinstance(changes, dict):
            return current.replace(**changes)
        scratch_tid = self.insert(current)
        scratch = self.open(scratch_tid)
        changes(scratch)
        value = scratch.materialize()
        self.delete(scratch_tid)
        return value

    def chunks(self, needed: Optional[frozenset], batch: int) -> None:
        return None  # objects stream row at a time

    def make_index(
        self,
        definition: IndexDefinition,
        fragment_length: Optional[int] = None,
        current_only: bool = False,
    ) -> Union[NF2Index, TextIndex]:
        index: Union[NF2Index, TextIndex]
        if fragment_length is None:
            index = NF2Index(definition)
        else:
            index = TextIndex(definition, fragment_length=fragment_length)
            index.validate_against(self.schema)
        for tid in self._entry.tids:
            self.index(tid, indexes=(index,))
        return index

    def index(
        self,
        tid: TID,
        row: Optional[TupleValue] = None,
        indexes: Optional[Iterable[Any]] = None,
    ) -> None:
        """Bring *indexes* (by default all of the table's) up to date for
        the object at *tid*: it is opened once, and every index walks it
        inside one read scope, one pin per object page.  *row* is unused:
        the entries come from the Mini Directory walk."""
        indexes = self._entry.indexes.values() if indexes is None else indexes
        if not indexes:
            return
        obj = self.open(tid)
        with obj.space.reading():
            for index in indexes:
                index.index_object(obj)

    def deindex(self, tid: TID) -> None:
        for index in self._entry.indexes.values():
            index.deindex_object(tid)

    def verify(self, loaded: dict[TID, TupleValue]) -> list[str]:
        """Each loaded object's page list names only this table's pages,
        and no data subtuple sits on an MD page."""
        entry = self._entry
        buffer = entry.segment.buffer
        problems: list[str] = []
        for tid in entry.tids:
            if tid not in loaded:
                continue
            try:
                obj = self.open(tid)
            except Exception as exc:  # noqa: BLE001 — report, don't die
                problems.append(f"{entry.name}: {tid} structure unreadable: {exc}")
                continue
            for page_no in obj.space.pages:
                if not entry.segment.owns(page_no):
                    problems.append(
                        f"{entry.name}: {tid} page list names foreign page "
                        f"{page_no}"
                    )
            for page_no, is_md in zip(obj.space.page_list, obj.space.page_roles):
                if page_no is None or not is_md:
                    continue
                page = buffer.fetch(page_no)
                try:
                    kinds = {
                        subtuple_kind(payload)
                        for _slot, flag, payload in page.slots()
                        if flag == 0 and payload
                    }
                except StorageError as exc:
                    problems.append(f"{entry.name}: {tid} MD page {page_no}: {exc}")
                    continue
                finally:
                    buffer.unpin(page_no)
                if KIND_DATA in kinds:
                    problems.append(
                        f"{entry.name}: {tid} has data subtuples on MD page "
                        f"{page_no}"
                    )
        return problems

    def sweep_orphans(self) -> None:
        """Objects of MVCC versions whose GC never ran stay in place: their
        pages are unreachable but harmless (docs/CONCURRENCY.md)."""

    def object_split(self) -> dict:
        """The MD/data page split and subtuple counts over the current
        objects (NULL when there are none; the subtuple counts are NULL
        under subtuple versioning)."""
        split = dict.fromkeys(_SPLIT)
        if not self._entry.tids:
            return split
        md_pages = data_pages = md_subtuples = data_subtuples = 0
        for tid in self._entry.tids:
            space = self.open(tid).space
            if self._temporal is None:
                stats = self.manager.statistics(tid, self.schema)
                md_subtuples += stats["md_subtuples"]
                data_subtuples += stats["data_subtuples"]
            for page_no, is_md in zip(space.page_list, space.page_roles):
                if page_no is not None:
                    md_pages += is_md
                    data_pages += not is_md
        split.update(MD_PAGES=md_pages, DATA_PAGES=data_pages)
        if self._temporal is None:
            split.update(MD_SUBTUPLES=md_subtuples, DATA_SUBTUPLES=data_subtuples)
        return split


TableStore = Union[HeapStore, ObjectStore]
