"""The system catalog: tables, their storage, and their access paths.

Each table owns a :class:`~repro.storage.segment.Segment` of the shared
paged file and one store over it (:mod:`repro.catalog.store`): a heap of
tuples for a flat (1NF) table (no Mini Directories, Section 4.1), complex
objects for a nested one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.errors import (
    CatalogError,
    DuplicateIndexError,
    DuplicateTableError,
    UnknownIndexError,
    UnknownTableError,
)
from repro.index.manager import FlatIndex, NF2Index
from repro.index.stats import IndexStatistics
from repro.index.text import TextIndex
from repro.model.schema import TableSchema
from repro.storage.segment import Segment
from repro.storage.tid import TID
from repro.temporal.versions import VersionStore
from repro.wal.delta import DELTA_FORMAT

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.catalog.store import TableStore
    from repro.mvcc.store import MvccStore
    from repro.temporal.subtuple_versions import TemporalObjectManager

AnyIndex = Union[FlatIndex, NF2Index, TextIndex]
ValueIndex = Union[FlatIndex, NF2Index]


@dataclass
class TableEntry:
    schema: TableSchema
    segment: Segment
    versioned: bool = False
    #: temporal strategy: None, "object" (copy-on-write chains), or
    #: "subtuple" (the paper's subtuple-manager versioning)
    versioning: Optional[str] = None
    #: subtuple-level temporal storage (versioning == "subtuple")
    temporal_manager: Optional["TemporalObjectManager"] = None
    #: current top-level tuples, in insertion (= list) order
    tids: list[TID] = field(default_factory=list)
    #: logically deleted objects still readable via ASOF (subtuple mode)
    history_tids: list[TID] = field(default_factory=list)
    version_store: Optional[VersionStore] = None
    #: root TID -> version-store object id (object-versioned tables)
    object_ids: dict[TID, int] = field(default_factory=dict)
    indexes: dict[str, AnyIndex] = field(default_factory=dict)
    #: MVCC version metadata (populated when the database runs with
    #: ``mvcc=True``; None under plain 2PL)
    mvcc: Optional["MvccStore"] = None
    #: axis of explicit temporal write stamps ("date"/"logical"); tracked
    #: at the entry level for subtuple-versioned tables, whose manager
    #: keeps no cross-restart state of its own
    timestamp_axis: Optional[str] = None
    #: root-list changes since the last logged commit, in order:
    #: ``["+", page, slot]``, ``["-", page, slot]`` or
    #: ``["~", page, slot, new_page, new_slot]``.  None while the catalog
    #: is not journaled (in-memory and WAL-less databases).
    root_ops: Optional[list] = None
    #: the next delta carries this entry whole: DDL touched it, or an
    #: entry-level field without a journal of its own changed
    full_delta: bool = False
    #: the table's rows (set by :func:`repro.catalog.store.attach_store`)
    store: "TableStore" = field(init=False, repr=False, compare=False)

    # -- the root list (every mutation goes through these) -------------------

    def add_root(self, tid: TID) -> None:
        self.tids.append(tid)
        if self.root_ops is not None:
            self.root_ops.append(["+", tid.page, tid.slot])

    def remove_root(self, tid: TID) -> None:
        self.tids.remove(tid)
        if self.root_ops is not None:
            self.root_ops.append(["-", tid.page, tid.slot])

    def replace_root(self, old: TID, new: TID) -> None:
        """Put *new* at *old*'s position (a copy-on-write update)."""
        self.tids[self.tids.index(old)] = new
        if self.root_ops is not None:
            self.root_ops.append(["~", old.page, old.slot, new.page, new.slot])

    # -- a transaction's abort ---------------------------------------------------

    def mark(self) -> tuple:
        """What :meth:`rewind` puts back: not the history (versioned tables
        are not written in transactions), nor ``full_delta`` (never wrong)."""
        ops = None if self.root_ops is None else len(self.root_ops)
        return list(self.tids), self.schema, self.segment.mark(), ops, self.mvcc

    def rewind(self, mark: tuple) -> bool:
        """Put back a :meth:`mark` (an ALTER's MVCC store too); True when
        the schema changed."""
        tids, schema, segment, ops, self.mvcc = mark
        self.tids[:] = tids
        self.segment.rewind(segment)
        if ops is not None:
            del self.root_ops[ops:]  # type: ignore[index]
        if self.schema is schema:
            return False
        self.schema = schema
        return True

    # -- change journal --------------------------------------------------------

    def begin_journal(self) -> None:
        """Start recording changes afresh (the logged state is current)."""
        self.root_ops = []
        self.segment.journal = []
        self.full_delta = False

    @property
    def changed(self) -> bool:
        """Whether the journal holds anything the next COMMIT must log."""
        return self.root_ops is not None and bool(
            self.root_ops or self.segment.journal or self.full_delta
        )

    def take_delta(self, table_state: Callable[["TableEntry"], dict]) -> Optional[dict]:
        """This entry's part of a COMMIT delta, or None when it did not
        change.  A versioned entry is always logged whole: its version
        store, object ids and history list have no journal of their own."""
        if not self.changed:
            return None
        if self.full_delta or self.versioned:
            delta = {"name": self.name, "entry": table_state(self)}
        else:
            delta = {
                "name": self.name,
                "roots": self.root_ops,
                "pages": self.segment.journal,
            }
        self.begin_journal()
        return delta

    @property
    def name(self) -> str:
        return self.schema.name

    def value_indexes(self) -> list[ValueIndex]:
        return [i for i in self.indexes.values() if not isinstance(i, TextIndex)]

    def index_stats(self) -> dict[str, "IndexStatistics"]:
        """Cost-model statistics per index (see ``index/stats.py``) — what
        the planner scores and the shell's ``.indexes`` displays."""
        return {name: index.stats for name, index in self.indexes.items()}


class Catalog:
    def __init__(self) -> None:
        self._tables: dict[str, TableEntry] = {}
        self._index_owner: dict[str, str] = {}  # index name -> table name
        # short internal latch: concurrent sessions resolve table/index
        # names while DDL statements mutate the maps
        self._latch = threading.RLock()
        #: names dropped since the last logged commit; None while the
        #: catalog is not journaled
        self._dropped: Optional[list[str]] = None

    # -- change journal (what a COMMIT record logs) -----------------------------

    def begin_journal(self) -> None:
        """Record changes from here on, relative to the current state.

        A checkpoint calls this right after logging the full state, so
        the journal always holds exactly what the next COMMIT must add to
        the last snapshot in the log."""
        with self._latch:
            self._dropped = []
            for entry in self._tables.values():
                entry.begin_journal()

    def has_changes(self) -> bool:
        with self._latch:
            return bool(self._dropped) or any(
                entry.changed for entry in self._tables.values()
            )

    def take_delta(self, table_state: Callable[[TableEntry], dict]) -> dict:
        """Drain the journal into a COMMIT delta (the layout is documented
        in :mod:`repro.wal.delta`).  Tables come in catalog order, so
        replay appends new ones where memory has them."""
        with self._latch:
            if self._dropped is None:
                raise CatalogError("the catalog is not journaled")
            dropped, self._dropped = self._dropped, []
            tables = []
            for entry in self._tables.values():
                delta = entry.take_delta(table_state)
                if delta is not None:
                    tables.append(delta)
        return {"format": DELTA_FORMAT, "dropped": dropped, "tables": tables}

    # -- tables -------------------------------------------------------------------

    def add_table(self, entry: TableEntry) -> None:
        with self._latch:
            if entry.name in self._tables:
                raise DuplicateTableError(f"table {entry.name!r} already exists")
            self._tables[entry.name] = entry
            if self._dropped is not None:
                entry.begin_journal()
                entry.full_delta = True

    def table(self, name: str) -> TableEntry:
        with self._latch:
            entry = self._tables.get(name)
        if entry is None:
            raise UnknownTableError(f"no table named {name!r}")
        return entry

    def has_table(self, name: str) -> bool:
        with self._latch:
            return name in self._tables

    def drop_table(self, name: str) -> TableEntry:
        with self._latch:
            entry = self.table(name)
            for index_name in list(entry.indexes):
                self._index_owner.pop(index_name, None)
            del self._tables[name]
            if self._dropped is not None:
                self._dropped.append(name)
            return entry

    def tables(self) -> list[TableEntry]:
        with self._latch:
            return list(self._tables.values())

    # -- indexes ----------------------------------------------------------------------

    def add_index(self, table_name: str, index_name: str, index: AnyIndex) -> None:
        with self._latch:
            entry = self.table(table_name)
            if index_name in self._index_owner:
                raise DuplicateIndexError(f"index {index_name!r} already exists")
            entry.indexes[index_name] = index
            entry.full_delta = True
            self._index_owner[index_name] = table_name

    def drop_index(self, index_name: str) -> None:
        with self._latch:
            owner = self._index_owner.pop(index_name, None)
            if owner is None:
                raise UnknownIndexError(f"no index named {index_name!r}")
            entry = self._tables[owner]
            del entry.indexes[index_name]
            entry.full_delta = True

    def index(self, index_name: str) -> AnyIndex:
        with self._latch:
            owner = self._index_owner.get(index_name)
            if owner is None:
                raise UnknownIndexError(f"no index named {index_name!r}")
            return self._tables[owner].indexes[index_name]

    def index_owner(self, index_name: str) -> str:
        with self._latch:
            owner = self._index_owner.get(index_name)
            if owner is None:
                raise UnknownIndexError(f"no index named {index_name!r}")
            return owner
