"""The DBMS facade: an embedded AIM-II.

::

    from repro import Database

    db = Database()                      # in-memory; pass path= for a file
    db.execute(\"\"\"CREATE TABLE DEPARTMENTS (
        DNO INT, MGRNO INT,
        PROJECTS TABLE OF (PNO INT, PNAME STRING,
                           MEMBERS TABLE OF (EMPNO INT, FUNCTION STRING)),
        BUDGET INT,
        EQUIP TABLE OF (QU INT, TYPE STRING))\"\"\")
    db.insert("DEPARTMENTS", {...})      # nested plain data
    result = db.query(\"\"\"SELECT x.DNO FROM x IN DEPARTMENTS
                          WHERE EXISTS y IN x.EQUIP: y.TYPE = 'PC/AT'\"\"\")

The facade implements the executor's :class:`TableProvider` protocol, owns
the buffer manager (whose counters benchmarks read), maintains indexes on
every DML path, and exposes tuple names and temporal ASOF support.
"""

from __future__ import annotations

import datetime
import json
import os
import threading
import time
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Optional, Union

from repro.catalog.catalog import Catalog, TableEntry, ValueIndex
from repro.catalog.store import Changes, attach_store
from repro.concurrency.locks import LockManager, LockMode
from repro.errors import (
    DataError,
    ExecutionError,
    QueryError,
    SerializationError,
    StorageError as StorageError_,
    TemporalError,
    UnknownTableError,
)
from repro.index.addresses import AddressingMode
from repro.index.manager import IndexDefinition
from repro.index.text import TextIndex
from repro.mvcc import gc as _mvcc_gc
from repro.mvcc import read as _mvcc_read
from repro.mvcc.snapshot import AXIS_TIME, MvccManager, Snapshot
from repro.mvcc.store import MvccStore
from repro.model.ddl import parse_create_table
from repro.model.schema import TableSchema
from repro.model.values import TableValue, TupleValue
from repro.names.tuple_names import TupleName, TupleNameService
from repro.obs import METRICS, Span, TRACER, WAITS
from repro.obs.ash import ActiveSessionHistory
from repro.obs.metrics import LATENCY_BUCKETS_MS
from repro.obs.querylog import QueryLog, QueryRecord
from repro.obs.slo import SloEngine
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.sysviews import is_sys_table, iterate_sys_view, sys_view_schema
from repro.query import ast
from repro.query.compile import _compile_expression, _compile_predicate
from repro.query.dml import PartialDML
from repro.query.executor import Executor
from repro.query.parser import parse_statement
from repro.query.planner import (
    candidate_roots,
    extract_condition_groups,
    join_conjuncts,
)
from repro.render import render_table
from repro.storage.buffer import BufferManager
from repro.storage.complex_object import OpenObject
from repro.storage.minidirectory import StorageStructure
from repro.storage.pagedfile import DiskPagedFile, MemoryPagedFile
from repro.storage.segment import Segment
from repro.storage.tid import TID
from repro.temporal.versions import (
    Timestamp,
    VersionStore,
    canonical_timestamp,
    timestamp_axis,
)
from repro.wal.delta import SNAPSHOT_FORMAT


class Database:
    """An embedded extended-NF2 DBMS instance.

    Disk-backed databases are durable by default: every statement (or
    explicit :meth:`transaction` scope) commits through a write-ahead log
    (``<path>.wal``), crash recovery replays the log on open, and page
    checksums catch torn writes.  ``wal=False`` restores the paper's
    original "single-user, no recovery component" behaviour where only
    :meth:`save` persists.  See ``docs/DURABILITY.md``.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        buffer_capacity: int = 512,
        structure: StorageStructure = StorageStructure.SS3,
        wal: bool = True,
        wal_auto_checkpoint_bytes: int = 1 << 20,
        page_checksums: bool = True,
        pagedfile=None,
        wal_io=None,
        mvcc: bool = False,
        read_only: bool = False,
    ):
        self._path = path
        #: read-only mode: every mutation path is rejected (replicas open
        #: this way and redo shipped WAL batches through the apply
        #: context instead — see docs/REPLICATION.md)
        self.read_only = read_only
        #: thread-local flag set by replica apply while it installs a
        #: shipped batch — the only writer a read-only database admits
        self._apply_ctx = threading.local()
        #: replication role state: a ReplicationHub when this database
        #: ships its WAL to replicas, a ReplicaState when it tails a
        #: primary, None otherwise (SYS.REPLICAS / SYS.WAL read it)
        self.replication = None
        #: thread-local engine state: per-thread executor + last_plan (so
        #: concurrent sessions don't trample each other's run state) and
        #: the current Session driving this thread, if any
        self._thread_state = threading.local()
        self._session_ctx = threading.local()
        #: hierarchical lock manager (tables + complex objects); sessions
        #: route their statements through it — see docs/CONCURRENCY.md
        self.locks = LockManager()
        #: finished-statement ring + slow-query sink (SYS.QUERIES reads it)
        self.query_log = QueryLog()
        #: active-session-history sampler (SYS.ASH); constructed idle —
        #: call ``db.ash.start()`` to spawn the sampling thread
        self.ash = ActiveSessionHistory(self)
        #: metric time-series recorder (SYS.METRICS_HISTORY); constructed
        #: idle like the ASH sampler — ``db.ts.start()`` spawns the thread
        self.ts = TimeSeriesRecorder(self)
        #: SLO objectives + burn-rate alert state (SYS.SLOS / SYS.ALERTS);
        #: evaluated on the recorder's clock once objectives are defined
        self.slo = SloEngine(self)
        #: live sessions, weakly referenced (SYS.SESSIONS reads it)
        self._sessions: "weakref.WeakSet" = weakref.WeakSet()
        self._sessions_latch = threading.Lock()
        #: serializes mutation scopes against each other and against
        #: checkpoints (a latch, not a lock: never held across lock waits)
        self._write_latch = threading.RLock()
        #: bounded text -> parsed-statement cache; ASTs are immutable and
        #: already shared across threads through the compiled-plan cache,
        #: so repeated statements (pipelined clients, benchmarks) skip
        #: the parser entirely
        self._parse_cache: "OrderedDict[str, ast.Statement]" = OrderedDict()
        self._parse_cache_latch = threading.Lock()
        if pagedfile is not None:
            self._file = pagedfile
        else:
            self._file = DiskPagedFile(path) if path else MemoryPagedFile()
        #: the WAL manager (None: in-memory database or wal=False)
        self.wal = None
        #: what crash recovery did on open (None: nothing to recover)
        self.last_recovery = None
        wal_enabled = wal and path is not None
        if wal_enabled:
            from repro.wal.recovery import recover

            self.last_recovery = recover(self._wal_path, self._file)
        self.buffer = BufferManager(
            self._file,
            capacity=buffer_capacity,
            checksums=bool(path is not None and page_checksums),
        )
        self.catalog = Catalog()
        self.structure = structure
        #: set False to disable index-based access paths (benchmarks use it)
        self.use_access_paths = True
        #: bumped by every DDL statement (CREATE/DROP/ALTER TABLE) —
        #: compiled statement plans are stamped with the epoch they were
        #: built under and recompile when it moves
        self.schema_epoch = 0
        #: logical clock for default timestamps on subtuple-versioned tables
        self._clock = 0.0
        #: active transaction (single-user: at most one)
        self._active_txn: Optional["_Transaction"] = None
        #: MVCC manager (``mvcc=True``): statements of concurrent sessions
        #: read from commit-LSN snapshots without S-locking anything, and
        #: ``session.transaction(isolation="snapshot")`` runs under
        #: snapshot isolation with first-committer-wins conflicts.  None:
        #: the original strict-2PL behaviour.  See docs/CONCURRENCY.md.
        self.mvcc: Optional[MvccManager] = MvccManager() if mvcc else None
        recovered_state = (
            self.last_recovery.catalog_state
            if self.last_recovery is not None
            else None
        )
        # catalog restore rebuilds indexes through the normal write paths;
        # on a read-only replica those are gated, so run the restore under
        # the apply context (it is a replay, not a user mutation)
        self._apply_ctx.active = True
        try:
            self._load_catalog(recovered_state)
        finally:
            self._apply_ctx.active = False
        if wal_enabled:
            from repro.wal.manager import WalManager

            self.wal = WalManager(
                self._wal_path,
                io=wal_io,
                auto_checkpoint_bytes=wal_auto_checkpoint_bytes,
            )
            self.buffer.wal = self.wal
            # A checkpoint right after open truncates the (possibly just
            # replayed) log and establishes a durable baseline.
            self.checkpoint()

    @property
    def _wal_path(self) -> str:
        assert self._path is not None
        return self._path + ".wal"

    def _next_timestamp(self, at: Optional[Timestamp]) -> Timestamp:
        if at is None:
            self._clock += 1.0
            return self._clock
        self._clock = max(self._clock, canonical_timestamp(at))
        return at

    # ======================================================================
    # Concurrency (sessions + hierarchical locking; docs/CONCURRENCY.md)
    # ======================================================================

    @property
    def _executor(self) -> Executor:
        """Per-thread executor — its run state (``last_profile``, caches)
        must not be shared between concurrent sessions."""
        executor = getattr(self._thread_state, "executor", None)
        if executor is None:
            executor = Executor(self)
            self._thread_state.executor = executor
        return executor

    @property
    def last_plan(self):
        """The planner report of this thread's last planned range (see
        docs/PLANNER.md) — thread-local, like the executor."""
        return getattr(self._thread_state, "last_plan", None)

    @last_plan.setter
    def last_plan(self, value) -> None:
        self._thread_state.last_plan = value

    def session(self, name: Optional[str] = None, lock_timeout: Optional[float] = None):
        """A connection for one client thread.

        Statements executed through the returned
        :class:`~repro.concurrency.session.Session` take hierarchical
        locks (table intention locks + per-complex-object S/X keyed by
        root TID), so many sessions can drive one database concurrently;
        ``session.transaction()`` scopes multi-statement atomicity under
        strict two-phase locking.  *lock_timeout* (seconds) bounds every
        lock wait (default: the lock manager's 5 s)."""
        from repro.concurrency.session import Session

        return Session(self, name=name, lock_timeout=lock_timeout)

    def _session(self):
        """The session driving the current thread, if any."""
        return getattr(self._session_ctx, "current", None)

    def _register_session(self, session) -> None:
        with self._sessions_latch:
            self._sessions.add(session)

    def _unregister_session(self, session) -> None:
        with self._sessions_latch:
            self._sessions.discard(session)

    def active_sessions(self) -> list:
        """The open sessions on this database, sorted by name (dead
        references are pruned by the weak set) — backs ``SYS.SESSIONS``."""
        with self._sessions_latch:
            sessions = [s for s in self._sessions if not s._closed]
        return sorted(sessions, key=lambda s: s.name)

    def _lock_table(self, name: str, mode: LockMode) -> None:
        session = self._session()
        if session is not None:
            session.lock(("table", name), mode)

    def _lock_object(self, table: str, tid: TID, mode: LockMode) -> None:
        session = self._session()
        if session is not None:
            session.lock(("object", table, tid), mode)

    def _begin_write(self, entry: TableEntry, tid: Optional[TID] = None) -> None:
        """Front door of every DML write path.

        Under a session: serialize on the global writer token (through
        the lock manager, so the wait is deadlock-detectable), lazily
        enter the engine transaction for explicit session transactions,
        and lock the table ``IX`` — object ``X`` locks follow per touched
        object, in explicit transactions as in autocommit statements
        (:meth:`_hide_root` names the exception).  An open transaction
        notes the table, and the root *tid* about to be written, for its
        abort."""
        self._check_writable()
        session = self._session()
        if session is not None:
            session._before_write()
            self._lock_table(entry.name, LockMode.IX)
        if self._active_txn is not None:
            self._txn_guard(entry)
            self._active_txn.note_write(entry, tid)

    def _hide_root(self, entry: TableEntry, changes: Any = None) -> None:
        """Lock the table ``X`` before an explicit transaction hides a
        committed root from 2PL readers: drops it from the root list
        (DELETE, a copy-on-write UPDATE) or may drop one of its index
        postings (an UPDATE of an indexed attribute; an UPDATE's
        *changes* made in place to other attributes hide nothing).  A scan
        or probe would skip that row without meeting its object lock, and
        an abort brings it back.  Autocommit statements commit whatever
        they hid, so they stay at ``IX``."""
        if self._active_txn is None:
            return
        if changes is not None and entry.mvcc is None and all(
            isinstance(changes, dict)
            and index.definition.attribute_path[0] not in changes
            for index in entry.indexes.values()
        ):
            return
        self._lock_table(entry.name, LockMode.X)

    def _check_writable(self) -> None:
        """Reject mutations on a read-only replica.  The replica's apply
        thread (installing a shipped commit batch) sets the thread-local
        apply context and passes; everything else must write on the
        primary — or PROMOTE this database first."""
        if self.read_only and not getattr(self._apply_ctx, "active", False):
            raise ExecutionError(
                "read-only replica: this database tails a primary's WAL; "
                "run writes on the primary, or PROMOTE the replica to "
                "take over"
            )

    # ======================================================================
    # Durability (WAL commit scope + checkpointing)
    # ======================================================================

    @contextmanager
    def _wal_scope(self):
        """An autocommit :meth:`_commit_scope` around one mutation.

        Concurrency: under a session the global writer token is taken
        first (through the lock manager — deadlock-detectable), then the
        write latch serializes this scope against non-session writer
        threads and checkpoints.  The latch is re-entrant, so nested
        scopes and auto-checkpoints ride through.
        """
        self._check_writable()
        session = self._session()
        if session is not None:
            session._before_write()
        with self._write_latch:
            yield from self._commit_scope(session)

    def _commit_scope(self, session=None, txn: Optional["_Transaction"] = None):
        """The one commit protocol, for an autocommit statement and an
        explicit transaction *txn* alike; nested scopes ride on the outer.

        Versions created inside stay pending until the depth-0 MVCC
        ``end_scope`` stamps them; version GC rides on an outermost
        statement scope, inside the WAL transaction so it is logged.  On
        success the dirtied pages and the catalog delta are logged and
        fsynced before control returns.  On failure *txn* restores its
        before-images and logs ABORT alone; a failed statement instead
        commits what memory kept under a successor transaction.  A failing
        log poisons the WAL; the original error is the one raised."""
        wal, manager = self.wal, self.mvcc
        if manager is not None:
            manager.begin_scope(session._snapshot if session is not None else None)
        try:
            if wal is not None and wal.failure is not None:
                # a poisoned WAL must not let mutations through, even while
                # a stale transaction flag from the failed commit is set
                raise wal.failure
            log = wal if wal is not None and not wal.in_txn else None
            if log is not None:
                log.begin()
            if (
                manager is not None and txn is None
                and manager.scope_depth() == 1 and (log is not None or wal is None)
            ):
                _mvcc_gc.collect(self)
            try:
                yield
            except BaseException:
                if txn is not None:
                    txn.abort(log)
                elif log is not None:
                    try:
                        log.convert_abort()
                        log.log_commit(self._catalog_delta(), self.buffer.image_for_log)
                    except Exception as wal_exc:
                        log.poison(wal_exc)
                raise
            if log is not None:
                try:
                    needs_checkpoint = log.log_commit(
                        self._catalog_delta(), self.buffer.image_for_log
                    )
                except BaseException as exc:
                    log.poison(exc)
                    raise
                if needs_checkpoint:
                    if METRICS.enabled:
                        METRICS.inc("wal.auto_checkpoints")
                    self.checkpoint()
        finally:
            if manager is not None:
                manager.end_scope(wal.last_commit_lsn if wal is not None else None)

    def checkpoint(self) -> None:
        """Flush all dirty pages, sync the data file, write the catalog
        sidecar, and truncate the WAL to a single checkpoint record.

        Runs automatically when the log outgrows
        ``wal_auto_checkpoint_bytes``; the shell exposes ``.checkpoint``.
        """
        if self.wal is None:
            raise StorageError_(
                "checkpoint requires a WAL-enabled disk database"
            )
        with self._write_latch:  # not concurrent with mutation scopes
            if self.wal.in_txn:
                from repro.errors import WalError

                raise WalError("cannot checkpoint inside a transaction")
            if self.wal.protected_pages or self.catalog.has_changes():
                # stray unlogged changes (e.g. direct OpenObject mutation,
                # version GC on close): fold them into a commit so the
                # flush below is WAL-covered and replicas receive them
                self.wal.begin()
                self.wal.log_commit(
                    self._catalog_delta(), self.buffer.image_for_log
                )
            state = self._catalog_state()
            self.buffer.flush_all()
            self.wal.checkpoint(state)
            self._write_catalog_sidecar(state)
            # later COMMIT deltas apply to the state just logged
            self.catalog.begin_journal()

    # ======================================================================
    # DDL
    # ======================================================================

    def create_table(
        self,
        definition: Union[str, TableSchema],
        versioned: bool = False,
        versioning: str = "object",
    ) -> TableSchema:
        """Create a table from DDL text or a schema object.

        ``versioned=True`` enables temporal support; ``versioning`` picks
        the strategy: ``"object"`` (copy-on-write version chains) or
        ``"subtuple"`` (the paper's subtuple-manager versioning, NF2
        tables only).
        """
        schema = (
            parse_create_table(definition) if isinstance(definition, str) else definition
        )
        if versioning not in ("object", "subtuple"):
            raise TemporalError(f"unknown versioning strategy {versioning!r}")
        self._lock_table(schema.name, LockMode.X)  # DDL: absolute table lock
        with self._wal_scope():
            return self._create_table_entry(schema, versioned, versioning)

    def _create_table_entry(
        self, schema: TableSchema, versioned: bool, versioning: str
    ) -> TableSchema:
        entry = TableEntry(
            schema=schema,
            segment=Segment(self.buffer, name=schema.name),
            versioned=versioned,
            versioning=versioning if versioned else None,
        )
        attach_store(entry, self.structure)
        if versioned and versioning == "object":
            entry.version_store = VersionStore()
        self._bootstrap_mvcc(entry)
        self.catalog.add_table(entry)
        self.schema_epoch += 1  # invalidate compiled statement plans
        return schema

    def _bootstrap_mvcc(self, entry: TableEntry) -> None:
        """Attach an MVCC store to *entry* and seed its current rows as
        committed-since-0.  Subtuple-versioned tables are excluded: their
        manager mutates version chains in place, so there is no stable
        per-version root TID to hang visibility on (they stay under 2PL
        even when ``mvcc=True``)."""
        if self.mvcc is None or entry.temporal_manager is not None:
            return
        store = MvccStore(self.mvcc, entry)
        store.bootstrap(iter(entry.tids))
        entry.mvcc = store

    @staticmethod
    def _reject_sys_write(name: str) -> None:
        """DML/DDL against the virtual SYS catalog is meaningless — its
        rows are computed from engine state at read time."""
        if is_sys_table(name):
            raise ExecutionError(f"{name} is a read-only system view")

    def drop_table(self, name: str) -> None:
        self._reject_sys_write(name)
        self._lock_table(name, LockMode.X)
        with self._wal_scope():
            entry = self.catalog.drop_table(name)
            self.schema_epoch += 1  # invalidate compiled statement plans
            if self.mvcc is not None and entry.mvcc is not None:
                self.mvcc.forget_table(entry.mvcc)

    def create_index(
        self,
        name: str,
        table: str,
        attribute_path: Union[str, tuple[str, ...]],
        mode: AddressingMode = AddressingMode.HIERARCHICAL,
        current_only: bool = False,
    ) -> None:
        """Create a value index; existing rows are indexed immediately.

        *current_only* restricts the flat build to the table's current
        TID list instead of a full heap scan.  Replica apply needs this:
        a primary running MVCC leaves dead (superseded) versions in the
        heap until GC, and the non-MVCC replica has no visibility filter
        to screen them out of a scan-built index.
        """
        definition = IndexDefinition(
            name=name, table=table, attribute_path=_as_path(attribute_path), mode=mode
        )
        self._add_index(definition, current_only=current_only)

    def create_text_index(
        self,
        name: str,
        table: str,
        attribute_path: Union[str, tuple[str, ...]],
        fragment_length: int = 3,
    ) -> None:
        definition = IndexDefinition(
            name=name, table=table, attribute_path=_as_path(attribute_path)
        )
        self._add_index(definition, fragment_length=fragment_length)

    def _add_index(
        self,
        definition: IndexDefinition,
        fragment_length: Optional[int] = None,
        current_only: bool = False,
    ) -> None:
        """Build *definition*'s index over its table's rows, a text index
        when *fragment_length* is given, and add it to the catalog."""
        table = definition.table
        self._reject_sys_write(table)
        entry = self.catalog.table(table)
        definition.validate_against(entry.schema)
        self._lock_table(table, LockMode.X)  # index build scans the table
        with self._wal_scope():
            index = entry.store.make_index(
                definition, fragment_length, current_only
            )
            self.catalog.add_index(table, definition.name, index)

    def drop_index(self, name: str) -> None:
        if self._session() is not None:
            self._lock_table(self.catalog.index_owner(name), LockMode.X)
        with self._wal_scope():
            self.catalog.drop_index(name)

    def alter_table(
        self,
        table: str,
        action: str,
        attribute_path: Union[str, tuple[str, ...]],
        payload: Optional[str] = None,
        default: Any = None,
    ) -> TableSchema:
        """Schema evolution (offline migration; the paper lists schema
        changes as future research).

        * ``action='add'`` — *attribute_path* names the new atomic
          attribute (dotted for nested levels), *payload* its type name,
          *default* the value backfilled into existing tuples;
        * ``action='drop'`` / ``action='rename'`` — *attribute_path* names
          the victim; for rename, *payload* is the new name.

        Existing objects are rewritten under the new schema.  Versioned
        tables are rejected (their history carries the old schema), and so
        are drops/renames of indexed attributes.
        """
        from repro.model import evolution
        from repro.model.schema import atomic as make_atomic
        from repro.model.types import AtomicType

        self._reject_sys_write(table)
        entry = self.catalog.table(table)
        if entry.versioned:
            raise ExecutionError(
                "ALTER TABLE on versioned tables is not supported (the "
                "history was stored under the old schema)"
            )
        path = _as_path(attribute_path)
        old_schema = entry.schema
        if action == "add":
            if payload is None:
                raise ExecutionError("ADD needs a type name")
            new_attr = make_atomic(path[-1], AtomicType.parse(payload))
            if default is not None:
                default = new_attr.atomic_type.validate(default)  # type: ignore[union-attr]
            new_schema = evolution.add_attribute(old_schema, path[:-1], new_attr)
            migrate = lambda row: evolution.add_value(row, path[:-1], path[-1], default)
        elif action == "drop":
            self._check_not_indexed(entry, path)
            new_schema = evolution.drop_attribute(old_schema, path)
            migrate = lambda row: evolution.drop_value(row, path)
        elif action == "rename":
            if payload is None:
                raise ExecutionError("RENAME needs a new attribute name")
            self._check_not_indexed(entry, path)
            new_schema = evolution.rename_attribute(old_schema, path, payload)
            migrate = lambda row: evolution.rename_value(row, path, payload)
        else:
            raise ExecutionError(f"unknown ALTER action {action!r}")

        # Rewrite every stored tuple under the new schema (one WAL commit:
        # a crash mid-migration recovers to the pre-ALTER table).
        self._lock_table(table, LockMode.X)  # offline migration
        self._begin_write(entry)
        with self._wal_scope():
            rows = [entry.store.fetch(tid).to_plain() for tid in entry.tids]
            for tid in list(entry.tids):
                self.delete(table, tid)
            if entry.mvcc is not None:
                # the retained version history was stored under the old
                # schema and can no longer be decoded — release it now,
                # while the old schema is still installed
                self._purge_mvcc_history(entry)
            entry.schema = new_schema
            entry.full_delta = True  # the logged DDL changes
            self.schema_epoch += 1  # invalidate compiled statement plans
            for row in rows:
                self.insert(table, migrate(row))
        return new_schema

    @staticmethod
    def _check_not_indexed(entry: TableEntry, path: tuple[str, ...]) -> None:
        for index in entry.indexes.values():
            index_path = index.definition.attribute_path
            if index_path[: len(path)] == path or path[: len(index_path)] == index_path:
                raise ExecutionError(
                    f"attribute {'.'.join(path)} is covered by index "
                    f"{index.definition.name!r}; drop the index first"
                )

    # -- temporal access below the language (walk-through-time) ----------------

    def history(self, table: str, tid: TID) -> list[tuple[float, float, TupleValue]]:
        """Every stored version of the object currently at *tid*, as
        ``(valid_from, valid_to, value)`` — the paper's walk-through-time
        support at the subtuple-manager level (not surfaced in the query
        language, matching the prototype's state)."""
        entry = self.catalog.table(table)
        if entry.version_store is None:
            raise TemporalError(f"table {table!r} is not versioned")
        object_id = entry.object_ids.get(tid)
        if object_id is None:
            raise TemporalError(f"{tid} is not a current version in {table!r}")
        out = []
        for version in entry.version_store.history(object_id):
            if version.root_tid is None:
                continue
            out.append(
                (version.valid_from, version.valid_to,
                 entry.store.fetch(version.root_tid))
            )
        return out

    def walk_through_time(
        self, table: str, tid: TID, start: Timestamp, end: Timestamp
    ) -> list[tuple[float, float, TupleValue]]:
        """The versions of one object whose validity intervals overlap
        ``[start, end)``."""
        lo = canonical_timestamp(start)
        hi = canonical_timestamp(end)
        return [
            (valid_from, valid_to, value)
            for valid_from, valid_to, value in self.history(table, tid)
            if valid_from < hi and valid_to > lo
        ]

    # ======================================================================
    # DML (programmatic)
    # ======================================================================

    def insert(
        self, table: str, row: Any, at: Optional[Timestamp] = None
    ) -> TID:
        """Insert one (possibly nested) tuple given as plain data."""
        self._reject_sys_write(table)
        entry = self.catalog.table(table)
        value = TupleValue.from_plain(entry.schema, row)
        self._begin_write(entry)
        with self._wal_scope():
            tid = self._insert_value(entry, value, at)
            # claim the new object before any concurrent reader can S-lock
            # a recycled TID out from under this statement
            self._lock_object(table, tid, LockMode.X)
            return tid

    def _txn_guard(self, entry: TableEntry) -> None:
        if entry.versioning == "subtuple":
            raise ExecutionError(
                f"table {entry.name!r} is subtuple-versioned and cannot be "
                "mutated inside db.transaction(): the subtuple manager "
                "writes version chains in place and rollback cannot "
                "unwrite them (mutate it outside the transaction, or use "
                "versioning='object')"
            )
        if entry.versioned:
            raise ExecutionError(
                "versioned tables cannot be mutated inside a transaction "
                "(their history cannot be unwritten)"
            )

    def insert_many(
        self, table: str, rows: Iterable[Any], at: Optional[Timestamp] = None
    ) -> list[TID]:
        # one WAL commit for the whole batch (crash ⇒ all or nothing)
        with self._wal_scope():
            return [self.insert(table, row, at=at) for row in rows]

    def _insert_value(
        self, entry: TableEntry, value: TupleValue, at: Optional[Timestamp]
    ) -> TID:
        if entry.temporal_manager is not None:
            self._note_temporal_axis(entry, at)
            tid = entry.temporal_manager.store(
                entry.schema, value, self._next_timestamp(at)
            )
            entry.add_root(tid)
            entry.store.index(tid)
            return tid
        tid = entry.store.insert(value)
        entry.store.index(tid, value)
        entry.add_root(tid)
        self._note_mvcc_insert(entry, tid)
        if entry.version_store is not None:
            object_id = entry.version_store.record_insert(tid, at=at)
            entry.object_ids[tid] = object_id
        return tid

    def delete(self, table: str, tid: TID, at: Optional[Timestamp] = None) -> None:
        """Delete one top-level tuple/object by TID."""
        self._reject_sys_write(table)
        entry = self.catalog.table(table)
        if tid not in entry.tids:
            raise self._missing_tuple(entry, tid)
        self._begin_write(entry, tid)
        self._hide_root(entry)
        self._lock_object(table, tid, LockMode.X)  # may wait; recheck below
        if tid not in entry.tids:
            raise self._missing_tuple(entry, tid)
        self._check_snapshot_conflict(entry, tid)
        with self._wal_scope():
            self._deindex_on_write(entry, tid)
            entry.remove_root(tid)
            if entry.temporal_manager is not None:
                self._note_temporal_axis(entry, at)
                entry.temporal_manager.delete_object(
                    tid, entry.schema, self._next_timestamp(at)
                )
                entry.history_tids.append(tid)
                return
            self._note_mvcc_delete(entry, tid)
            if entry.version_store is not None:
                object_id = entry.object_ids.pop(tid)
                entry.version_store.record_delete(object_id, at=at)
                return  # history keeps the stored bytes
            if entry.mvcc is not None:
                return  # snapshot readers may still need the bytes; GC frees them
            entry.store.delete(tid)

    def update(
        self,
        table: str,
        tid: TID,
        changes: Changes,
        at: Optional[Timestamp] = None,
    ) -> TID:
        """Update one tuple/object.

        *changes* is either a mapping of top-level atomic attributes to new
        values, or — for NF2 tables — a callable receiving the
        :class:`OpenObject` for arbitrary partial updates.  Returns the
        (possibly new, if versioned) TID.
        """
        self._reject_sys_write(table)
        entry = self.catalog.table(table)
        if tid not in entry.tids:
            raise self._missing_tuple(entry, tid)
        self._begin_write(entry, tid)
        self._hide_root(entry, changes)
        self._lock_object(table, tid, LockMode.X)  # may wait; recheck below
        if tid not in entry.tids:
            raise self._missing_tuple(entry, tid)
        self._check_snapshot_conflict(entry, tid)
        with self._wal_scope():
            if entry.temporal_manager is not None:
                self._note_temporal_axis(entry, at)
                when = self._next_timestamp(at)
                if isinstance(changes, dict):
                    entry.temporal_manager.update_atoms(
                        tid, entry.schema, [], changes, when
                    )
                else:
                    changes(entry.temporal_manager.mutator(tid, entry.schema, when))
                entry.store.index(tid)
                return tid
            if entry.version_store is not None or entry.mvcc is not None:
                return self._update_cow(entry, tid, changes, at)
            entry.store.index(tid, entry.store.update_in_place(tid, changes))
            return tid

    def _update_cow(
        self,
        entry: TableEntry,
        tid: TID,
        changes: Changes,
        at: Optional[Timestamp],
    ) -> TID:
        """Copy-on-write update: the old version's bytes stay in place —
        as temporal history (versioned tables), for concurrent snapshot
        readers (MVCC tables), or both."""
        new_value = entry.store.revise(entry.store.fetch(tid), changes)
        new_tid = entry.store.insert(new_value)
        entry.store.index(new_tid, new_value)
        self._deindex_on_write(entry, tid)
        entry.replace_root(tid, new_tid)
        self._note_mvcc_delete(entry, tid)
        self._note_mvcc_insert(entry, new_tid)
        if entry.version_store is not None:
            object_id = entry.object_ids.pop(tid)
            entry.object_ids[new_tid] = object_id
            entry.version_store.record_update(object_id, new_tid, at=at)
        return new_tid

    # -- MVCC bookkeeping on the write path ---------------------------------------

    def _note_mvcc_insert(self, entry: TableEntry, tid: TID) -> None:
        if entry.mvcc is not None:
            entry.mvcc.note_insert(tid, self.mvcc.current_txn())  # type: ignore[union-attr, arg-type]

    def _note_mvcc_delete(self, entry: TableEntry, tid: TID) -> None:
        if entry.mvcc is not None:
            entry.mvcc.note_delete(tid, self.mvcc.current_txn())  # type: ignore[union-attr, arg-type]

    def _write_snapshot(self, entry: TableEntry):
        """The snapshot the current session's *write* runs under, or None
        (2PL mode, an untracked table, or no session)."""
        if self.mvcc is None or entry.mvcc is None:
            return None
        session = self._session()
        return session._snapshot if session is not None else None

    def _check_snapshot_conflict(self, entry: TableEntry, tid: TID) -> None:
        """First-committer-wins: a pinned (snapshot-isolation) transaction
        may not overwrite a row version committed after its snapshot
        point."""
        snapshot = self._write_snapshot(entry)
        if snapshot is None or not snapshot.pinned:
            return
        if entry.mvcc.committed_after(tid, snapshot.point):  # type: ignore[union-attr]
            METRICS.inc("mvcc.conflicts")
            raise SerializationError(
                f"snapshot transaction lost a write conflict on {tid} of "
                f"{entry.name!r}: the row was modified by a transaction "
                "that committed after this snapshot was taken"
            )

    def _missing_tuple(self, entry: TableEntry, tid: TID) -> Exception:
        """The error for writing a TID that is not current: under a pinned
        snapshot that still *sees* the row, the row was deleted or
        superseded by a later commit — a serialization conflict, not a
        user mistake."""
        snapshot = self._write_snapshot(entry)
        if (
            snapshot is not None
            and snapshot.pinned
            and entry.mvcc.get(tid) is not None  # type: ignore[union-attr]
        ):
            METRICS.inc("mvcc.conflicts")
            return SerializationError(
                f"snapshot transaction lost a write conflict on {tid} of "
                f"{entry.name!r}: the row this snapshot sees was deleted "
                "or superseded by a transaction that committed after the "
                "snapshot was taken"
            )
        return ExecutionError(f"{tid} is not a current tuple of {entry.name!r}")

    def _note_temporal_axis(self, entry: TableEntry, at: Optional[Timestamp]) -> None:
        """Entry-level timestamp-axis guard for subtuple-versioned tables
        (their manager keeps no cross-restart state of its own; object
        versioning has the same check inside ``VersionStore._stamp``)."""
        if at is None:
            return
        axis = timestamp_axis(at)
        if entry.timestamp_axis is None:
            entry.timestamp_axis = axis
            entry.full_delta = True  # an entry field without a journal
        elif entry.timestamp_axis != axis:
            raise TemporalError(
                f"cannot stamp a {axis} timestamp {at!r} on table "
                f"{entry.name!r} whose versions use {entry.timestamp_axis} "
                "timestamps: the two axes are not comparable and versions "
                "would be silently mis-ordered"
            )

    def _mvcc_reclaim(self, entry: TableEntry, tid: TID) -> None:
        """Physically release one dead version (called from GC once no
        snapshot can reach it): drop its deferred index entries and —
        unless a temporal VersionStore still needs the bytes as ASOF
        history — delete the stored record."""
        entry.store.deindex(tid)
        if entry.version_store is not None:
            return  # ASOF still reaches the bytes through the version chain
        entry.store.delete(tid)

    def _purge_mvcc_history(self, entry: TableEntry) -> None:
        """Drop every retained version of *entry* immediately (table
        rewrite under its exclusive lock): snapshot isolation is not
        maintained across DDL."""
        store = entry.mvcc
        assert store is not None and self.mvcc is not None
        self.mvcc.forget_table(store)
        for tid in store.live_tids():
            if tid in entry.tids:
                continue  # still current — the rewrite handles it
            try:
                self._mvcc_reclaim(entry, tid)
            except Exception:  # noqa: BLE001 — best effort, like GC
                METRICS.inc("mvcc.gc_errors")
        fresh = MvccStore(self.mvcc, entry)
        fresh.bootstrap(iter(entry.tids))
        entry.mvcc = fresh

    def _deindex_on_write(self, entry: TableEntry, tid: TID) -> None:
        """Deindex a superseded/deleted version — deferred to GC on MVCC
        tables, where a concurrent snapshot reader must still find the old
        version through the index (PostgreSQL-vacuum style)."""
        if entry.mvcc is None:
            entry.store.deindex(tid)

    # ======================================================================
    # Statements (the language interface)
    # ======================================================================

    def execute(self, text: str) -> Any:
        """Execute any statement.  Queries return a
        :class:`~repro.model.values.TableValue`; DML returns the affected
        tuple count; DDL returns the created schema / ``None``;
        ``EXPLAIN [ANALYZE]`` returns the rendered plan text."""
        parse_start = time.perf_counter()
        WAITS.begin_statement()
        statement = self._parse_cached(text)
        parse_end = time.perf_counter()
        parse_ms = (parse_end - parse_start) * 1000.0
        before = METRICS.totals() if METRICS.enabled else None
        result: Any = None
        error: Optional[str] = None
        traced = False
        try:
            if isinstance(statement, ast.ExplainStatement):
                # ANALYZE runs the target under obs.profiled(): traced
                traced = statement.analyze
                result = self._execute_explain(statement, parse_ms)
            elif not TRACER.enabled and not TRACER.armed:
                result = self._dispatch(statement)
            else:
                traced = True
                with TRACER.span(
                    "statement",
                    kind=type(statement).__name__,
                    text=text.strip()[:200],
                ) as span:
                    if span is not None:
                        parse_span = Span("parse", start=parse_start)
                        parse_span.end = parse_end
                        span.children.append(parse_span)
                    result = self._dispatch(statement)
            return result
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            trace = TRACER.thread_last_trace if traced else None
            self._record_statement(
                text,
                statement,
                result,
                parse_start,
                before,
                error,
                waits=WAITS.take_statement(),
                trace_id=trace.trace_id if trace is not None else None,
            )

    _PARSE_CACHE_LIMIT = 512

    def _parse_cached(self, text: str) -> ast.Statement:
        """Parse *text*, reusing the AST of a recently seen statement.

        Parsing is pure and ASTs are never mutated after construction
        (the compiled-plan cache already shares them across sessions), so
        a byte-identical statement can skip the lexer/parser.  EXPLAIN is
        re-parsed every time: its rendered plan embeds parse timing.
        """
        with self._parse_cache_latch:
            statement = self._parse_cache.get(text)
            if statement is not None:
                self._parse_cache.move_to_end(text)
                if METRICS.enabled:
                    METRICS.inc("exec.parse_hits")
                return statement
        statement = parse_statement(text)
        if isinstance(statement, ast.ExplainStatement):
            return statement
        with self._parse_cache_latch:
            self._parse_cache[text] = statement
            self._parse_cache.move_to_end(text)
            while len(self._parse_cache) > self._PARSE_CACHE_LIMIT:
                self._parse_cache.popitem(last=False)
        return statement

    def _record_statement(
        self,
        text: str,
        statement: ast.Statement,
        result: Any,
        started: float,
        before: Optional[dict],
        error: Optional[str],
        waits: Optional[dict] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        """Finish-line accounting for one statement: the ``SYS.QUERIES``
        ring (always on), the slow-query sink (threshold-gated), the
        ``query.latency_ms`` histogram (only while metrics are enabled),
        the wait breakdown folded into the session, and the statement's
        trace id so the query log links to ``SYS.TRACES``."""
        latency_ms = (time.perf_counter() - started) * 1000.0
        kind = _statement_kind(statement)
        tables = _statement_tables(statement)
        if isinstance(result, TableValue):
            rows = len(result.rows)
        elif isinstance(result, int):
            rows = result
        else:
            rows = 0
        if METRICS.enabled:
            METRICS.histogram(
                "query.latency_ms",
                "statement latency, parse through execution (milliseconds)",
                buckets=LATENCY_BUCKETS_MS,
            ).observe(latency_ms, kind=kind, table=tables[0] if tables else "-")
            # success/error counters feed the error-budget SLOs
            METRICS.inc("query.statements", kind=kind)
            if error is not None:
                METRICS.inc("query.errors", kind=kind)
        counters = METRICS.delta(before) if before is not None else {}
        session = self._session()
        if session is not None and waits:
            session._note_waits(waits)
        self.query_log.record(
            QueryRecord(
                text=text.strip(),
                kind=kind,
                latency_ms=latency_ms,
                rows=rows,
                tables=tables,
                counters=counters,
                session=session.name if session is not None else None,
                error=error,
                waits=waits,
                trace_id=trace_id,
            )
        )

    #: statement types that mutate data or catalog — each executes as one
    #: WAL commit (multi-row UPDATE/DELETE become all-or-nothing on crash)
    _MUTATING_STATEMENTS = (
        ast.InsertStatement,
        ast.UpdateStatement,
        ast.DeleteStatement,
        ast.SubInsertStatement,
        ast.SubUpdateStatement,
        ast.SubDeleteStatement,
        ast.CreateTableStatement,
        ast.DropTableStatement,
        ast.CreateIndexStatement,
        ast.DropIndexStatement,
        ast.AlterTableStatement,
    )

    def _dispatch(self, statement: ast.Statement) -> Any:
        if isinstance(statement, self._MUTATING_STATEMENTS):
            with self._wal_scope():
                return self._dispatch_inner(statement)
        return self._dispatch_inner(statement)

    def _dispatch_inner(self, statement: ast.Statement) -> Any:
        if isinstance(statement, ast.Query):
            return self._executor.run(statement)
        if isinstance(statement, ast.InsertStatement):
            return self._execute_insert(statement)
        if isinstance(statement, ast.UpdateStatement):
            return self._execute_update(statement)
        if isinstance(statement, ast.DeleteStatement):
            return self._execute_delete(statement)
        if isinstance(statement, ast.CreateTableStatement):
            return self.create_table(statement.ddl_text, versioned=statement.versioned)
        if isinstance(statement, ast.DropTableStatement):
            self.drop_table(statement.table)
            return None
        if isinstance(statement, ast.CreateIndexStatement):
            if statement.text:
                self.create_text_index(
                    statement.name, statement.table, statement.attribute_path
                )
            else:
                self.create_index(
                    statement.name, statement.table, statement.attribute_path
                )
            return None
        if isinstance(statement, ast.DropIndexStatement):
            self.drop_index(statement.name)
            return None
        if isinstance(statement, ast.SubInsertStatement):
            return PartialDML(self).execute_insert(statement)
        if isinstance(statement, ast.SubUpdateStatement):
            return PartialDML(self).execute_update(statement)
        if isinstance(statement, ast.SubDeleteStatement):
            return PartialDML(self).execute_delete(statement)
        if isinstance(statement, ast.AlterTableStatement):
            return self.alter_table(
                statement.table,
                statement.action,
                statement.attribute_path,
                statement.payload,
            )
        raise QueryError(f"unhandled statement {statement!r}")  # pragma: no cover

    def query(self, text: str) -> TableValue:
        """Execute a SELECT query."""
        result = self.execute(text)
        if not isinstance(result, TableValue):
            raise QueryError("statement was not a query")
        return result

    def explain(self, text: str) -> str:
        """Describe how a query would be executed (without running it):
        the binding loops, and the access path chosen for every range
        variable."""
        statement = parse_statement(text)
        if isinstance(statement, ast.ExplainStatement):
            statement = statement.target
        return self._explain_plan(statement)

    def _explain_plan(self, statement: ast.Statement) -> str:
        if isinstance(statement, ast.Query):
            return "\n".join(self._plan_lines(statement))
        if isinstance(statement, _DML_STATEMENTS):
            return "\n".join(self._dml_plan_lines(statement))
        return f"statement: {type(statement).__name__}"

    def _plan_lines(self, statement: ast.Query) -> list[str]:
        """Predicted plan: one loop line plus access-path line(s) per
        range variable, then the result shape."""
        from repro.query.binder import Binder

        schema = Binder(self).bind_query(statement)
        lines = ["query plan:"]
        for index, range_ in enumerate(statement.ranges):
            source = range_.source.describe()
            lines.append(f"  loop {index + 1}: {range_.var} IN {source}")
            lines.extend(self._query_access_lines(statement, index))
        out_kind = "list" if schema.ordered else "relation"
        lines.append(
            f"  result: {out_kind} ({', '.join(schema.attribute_names)})"
        )
        return lines

    def _dml_plan_lines(self, statement: ast.Statement) -> list[str]:
        """Predicted plan of a root or partial DML statement: every stored
        range is planned the way the statement selects its rows
        (:meth:`_dml_tids`)."""
        lines = [f"statement: {type(statement).__name__}"]
        for index, range_ in enumerate(_dml_ranges(statement)):
            source = range_.source.describe()
            lines.append(f"  loop {index + 1}: {range_.var} IN {source}")
            lines.extend(
                self._access_lines(range_, statement.where, planned=True)
            )
        return lines

    def _query_access_lines(self, statement: ast.Query, index: int) -> list[str]:
        range_ = statement.ranges[index]
        return self._access_lines(
            range_,
            statement.where,
            planned=index == 0,
            order_by=self._order_pushdown_path(statement, range_.var),
            outer=frozenset(r.var for r in statement.ranges[:index]),
        )

    def _access_lines(
        self,
        range_: ast.Range,
        where: Optional[ast.Predicate],
        planned: bool,
        order_by: Optional[tuple[str, ...]] = None,
        outer: frozenset = frozenset(),
    ) -> list[str]:
        """The access path chosen for one range variable.  *planned*
        ranges (a query's first range, every stored range of a DML
        statement) go through :meth:`_plan_roots`; a query's inner table
        ranges may run as index nested loops on the variables of the
        *outer* loops instead."""
        source = range_.source
        if source.table is None:
            assert source.path is not None
            return [
                f"  access: nested scan of {source.path.dotted()} "
                "(correlated with outer loops)"
            ]
        if source.asof is not None:
            return ["  access: materialized source (path or ASOF)"]
        if is_sys_table(source.table):
            return [
                "  access: system view (rows computed from engine state "
                "at read time)"
            ]
        entry = self.catalog.table(source.table)
        if planned:
            candidates, note = self._candidate_set(
                entry, where, range_.var, order_by
            )
            if candidates is None:
                return [f"  access: full scan ({note})"]
            report = self.last_plan
            lines = [
                f"  access: index ({', '.join(report.used_indexes)}) -> "
                f"{len(candidates)} candidate object(s)"
            ]
            if report.estimated_candidates is not None:
                lines.append(
                    "  cost model: estimated "
                    f"{report.estimated_candidates:g} candidate(s); "
                    "intersection in ascending-selectivity order"
                )
            if report.considered and len(report.considered) > len(
                report.used_indexes
            ):
                scored = ", ".join(
                    f"{name}={estimate:g}"
                    for name, estimate in report.considered
                )
                lines.append(f"  considered: {scored}")
            if report.early_exit:
                lines.append(
                    "  early exit: intersection emptied before all index "
                    "probes"
                )
            if report.prefix_joins:
                lines.append(
                    f"  prefix joins on hierarchical addresses: "
                    f"{report.prefix_joins}"
                )
            if report.sort_elided:
                lines.append(
                    "  order: index key order matches ORDER BY "
                    "(final sort elided)"
                )
            return lines
        # inner table range: index nested loops when an equality conjunct
        # ties one of its top-level attributes to a literal or to a range
        # an earlier loop binds — what the executors probe at run time
        for attribute, other in join_conjuncts(where, range_.var):
            if isinstance(other, ast.Path):
                if other.var not in outer:
                    continue
            elif other.value is None:
                continue  # NULL equals nothing: the executors scan
            index = self._join_index(entry, attribute)
            if index is not None:
                return [
                    f"  access: index nested loops ({index.definition.name})"
                ]
        return ["  access: full scan (re-scanned per outer binding)"]

    def _execute_explain(
        self, statement: ast.ExplainStatement, parse_ms: float
    ) -> str:
        """EXPLAIN renders the predicted plan; EXPLAIN ANALYZE also runs
        the statement under observability and annotates the plan with
        actual cardinalities, phase timings, and counter deltas."""
        target = statement.target
        if not statement.analyze:
            return self._explain_plan(target)
        from repro import obs

        is_query = isinstance(target, ast.Query)
        # Predicted access paths are computed *before* the metered run so
        # planner probes don't pollute the reported deltas.
        access_per_range: list[list[str]] = []
        predicted = [f"statement: {type(target).__name__}"]
        if is_query:
            access_per_range = [
                self._query_access_lines(target, index)
                for index in range(len(target.ranges))
            ]
        elif isinstance(target, _DML_STATEMENTS):
            predicted = self._dml_plan_lines(target)
        self.last_plan = None  # only the metered run may publish a plan
        with obs.profiled():
            before_totals = METRICS.totals()
            before_buffer = self.io_stats.snapshot()
            start = time.perf_counter()
            with TRACER.span(
                "statement", kind=type(target).__name__, analyze=True
            ):
                result = self._dispatch(target)
            total_ms = (time.perf_counter() - start) * 1000.0
            counter_delta = METRICS.delta(before_totals)
            buffer_delta = self.io_stats.delta(before_buffer)
            # this thread's trace, not the global last (another session
            # may have finished a statement while we were metering)
            trace = TRACER.thread_last_trace

        lines: list[str] = []
        if is_query:
            profile = self._executor.last_profile
            scanned = dict(profile.rows_scanned) if profile is not None else {}
            lines.append("query plan (analyzed):")
            for index, range_ in enumerate(target.ranges):
                source = range_.source.describe()
                lines.append(f"  loop {index + 1}: {range_.var} IN {source}")
                lines.extend(access_per_range[index])
                lines.append(
                    f"    actual: {scanned.get(range_.var, 0)} row(s) scanned"
                )
            emitted = len(result.rows) if isinstance(result, TableValue) else 0
            lines.append(f"  result: {emitted} row(s)")
            if profile is not None:
                lines.append(
                    f"  predicate evaluations: {profile.predicate_evals}"
                    f"  join lookups: {profile.join_lookups}"
                )
            exec_report = self._executor.exec_report
            if exec_report is not None:
                lines.append(
                    f"  exec: plan cache: {exec_report.cache}"
                    f"  settled conjuncts: {exec_report.settled_conjuncts}"
                    f"  columnar chunks: {exec_report.columnar_chunks}"
                )
        else:
            lines.extend(predicted)
            lines.append(f"  result: {result!r}")
        plan = self.last_plan
        if plan is not None and plan.used_any:
            lines.append("planner (analyzed):")
            lines.append(
                "  indexes (selectivity order): " + ", ".join(plan.used_indexes)
            )
            estimated = (
                f"{plan.estimated_candidates:g}"
                if plan.estimated_candidates is not None
                else "?"
            )
            lines.append(
                f"  estimated candidates: {estimated}"
                f"  actual candidates: {plan.actual_candidates}"
            )
            lines.append(
                f"  prefix joins: {plan.prefix_joins}"
                f"  early exit: {'yes' if plan.early_exit else 'no'}"
                f"  sort elided: {'yes' if plan.sort_elided else 'no'}"
            )
        lines.append("timings:")
        lines.append(f"  parse: {parse_ms:.3f} ms")
        for phase in ("bind", "execute"):
            span = trace.find(phase) if trace is not None else None
            if span is not None:
                lines.append(f"  {phase}: {span.duration_ms:.3f} ms")
        lines.append(f"  total: {total_ms:.3f} ms")
        lines.append("buffer (delta):")
        lines.append(
            "  "
            + "  ".join(f"{key}={value}" for key, value in buffer_delta.items())
        )
        engine = {
            name: value
            for name, value in counter_delta.items()
            if not name.startswith("buffer.")
        }
        if engine:
            lines.append("engine counters (delta):")
            for name, value in sorted(engine.items()):
                lines.append(f"  {name}: {value:g}")
        session = self._session()
        if session is not None:
            lines.append("locks:")
            lines.append(
                f"  requests: {session._stmt_lock_requests}"
                f"  waits: {session._stmt_lock_waits}"
                f"  held: {len(session.locks_held())}"
            )
            snapshot = getattr(session, "_snapshot", None)
            if snapshot is not None:
                pinned = " (pinned)" if snapshot.pinned else ""
                lines.append(
                    f"snapshot: lsn={snapshot.point:g} "
                    f"isolation={snapshot.isolation}{pinned}"
                )
        stmt_waits = WAITS.statement_waits()
        if stmt_waits:
            total_wait = sum(ms for _count, ms in stmt_waits.values())
            lines.append(f"waits: {total_wait:.3f} ms blocked")
            for event, (count, ms) in sorted(
                stmt_waits.items(), key=lambda kv: -kv[1][1]
            ):
                lines.append(f"  {event}: {ms:.3f} ms ({count} wait(s))")
        if trace is not None:
            lines.append(f"trace: {trace.trace_id}")
        return "\n".join(lines)

    def _execute_insert(self, statement: ast.InsertStatement) -> int:
        entry = self.catalog.table(statement.table)
        for literal in statement.rows:
            plain = _literal_to_plain(literal, entry.schema)
            self.insert(statement.table, plain)
        return len(statement.rows)

    def _execute_update(self, statement: ast.UpdateStatement) -> int:
        entry = self.catalog.table(statement.table)
        assignments = [
            (name, _compile_expression(expr)) for name, expr in statement.assignments
        ]
        executor = self._executor
        matches = self._match_tuples(entry, statement.var, statement.where)
        for tid, row in matches:
            env = {statement.var: row}
            changes = {}
            for name, value_of in assignments:
                attr = entry.schema.attribute(name)
                if not attr.is_atomic:
                    raise ExecutionError(
                        f"UPDATE assigns atomic attributes; {name!r} is a "
                        "subtable (use the partial-update API)"
                    )
                changes[name] = value_of(executor, env)
            self.update(statement.table, tid, changes)
        return len(matches)

    def _execute_delete(self, statement: ast.DeleteStatement) -> int:
        entry = self.catalog.table(statement.table)
        matches = self._match_tuples(entry, statement.var, statement.where)
        for tid, _row in matches:
            self.delete(statement.table, tid)
        return len(matches)

    def _match_tuples(
        self, entry: TableEntry, var: str, where: Optional[ast.Predicate]
    ) -> list[tuple[TID, TupleValue]]:
        test = None if where is None else _compile_predicate(where)
        executor = self._executor
        out = []
        for tid in self._dml_tids(entry, where, var):
            row = entry.store.fetch(tid)
            if test is None or test(executor, {var: row}):
                out.append((tid, row))
        return out

    def _dml_tids(
        self, entry: TableEntry, where: Optional[ast.Predicate], var: str
    ) -> list[TID]:
        """The rows a DML statement ranging *var* over *entry* tests
        against *where* (root UPDATE/DELETE and every stored range of a
        partial DML statement).

        These are the rows the statement may see — the session snapshot's
        under MVCC, so a pinned transaction writes the rows *it sees* and
        first-committer-wins turns a row changed or deleted meanwhile into
        a SerializationError instead of a silent zero-row write; otherwise
        the current TID list — narrowed to the planner's candidates.  The
        visible list's order is kept, so multi-row DML applies in the same
        order whichever access path ran.  Candidates are a superset: the
        caller re-evaluates the full WHERE on every row it fetches."""
        snapshot = self._read_snapshot(entry)
        if snapshot is not None:
            visible = list(_mvcc_read.snapshot_roots(entry, snapshot))
        else:
            visible = list(entry.tids)
        candidates, _note = self._candidate_set(entry, where, var)
        if candidates is None:
            return visible
        return [tid for tid in visible if tid in candidates]

    def _candidate_set(
        self,
        entry: TableEntry,
        where: Optional[ast.Predicate],
        var: str,
        order_by: Optional[tuple[str, ...]] = None,
    ) -> tuple[Optional[set[TID]], str]:
        """:meth:`_plan_roots`, drained into a set (DML and EXPLAIN)."""
        try:
            roots, note = self._plan_roots(entry, where, var, order_by=order_by)
            return (None if roots is None else set(roots)), note
        except TypeError:
            # DML is not bound, so a literal may have another type than
            # the index keys and the B+-tree cannot order it against them;
            # a scan evaluates the WHERE exactly as without the index
            self.last_plan = None
            return None, "a literal is not comparable with the index keys"

    # ======================================================================
    # TableProvider protocol (executor + binder)
    # ======================================================================

    def table_schema(self, name: str) -> TableSchema:
        if is_sys_table(name):
            return sys_view_schema(name)
        return self.catalog.table(name).schema

    def is_versioned(self, name: str) -> bool:
        if is_sys_table(name):
            return False  # SYS rows are computed at read time: no history
        return self.catalog.table(name).versioned

    def iterate_table_for_query(
        self,
        name: str,
        asof: Optional[datetime.date],
        query: ast.Query,
        var: str,
    ) -> Iterable[TupleValue]:
        """Stream the tuples of *name* relevant to *query*'s range *var*.

        When indexes cover the WHERE clause, candidate roots *stream* out
        of the planner's generator straight into object fetch — the first
        qualifying tuple is delivered before the last index posting is
        examined (Volcano-style; materialization only happens where the
        cost model intersects posting sets).

        Planning happens *eagerly* — this is a regular function, not a
        generator — so ``last_plan`` (with its ``sort_elided`` flag and
        ``settled`` conjunct list) is published before the caller pulls
        the first row.  The executor shapes its loop around that report
        once per statement instead of re-reading it per row.
        """
        if is_sys_table(name):
            self.last_plan = None
            return iterate_sys_view(self, name)
        entry = self.catalog.table(name)
        roots, _note = self._plan_roots(
            entry, query.where, var, asof, self._order_pushdown_path(query, var)
        )
        if roots is not None:
            return self._stream_roots(entry, roots, lazy=True)
        return self.iterate_table(name, asof, lazy=True)

    def _plan_roots(
        self,
        entry: TableEntry,
        where: Optional[ast.Predicate],
        var: str,
        asof: Optional[datetime.date] = None,
        order_by: Optional[tuple[str, ...]] = None,
    ) -> tuple[Optional[Iterable[TID]], str]:
        """The access-path decision for one stored-table range — the only
        one: SELECT, root UPDATE/DELETE, partial DML and EXPLAIN all plan
        through it.

        Returns ``(roots, note)``.  *roots* streams the candidate root
        TIDs — a superset of the rows satisfying *where* — or is ``None``
        for a full scan, which *note* explains.  ``last_plan`` is published
        (the :class:`PlanReport`, or ``None`` on a scan) and
        ``query.index_plans`` / ``query.scan_plans`` counted before the
        caller pulls the first candidate."""
        self.last_plan = None
        roots = report = None
        if not self.use_access_paths:
            note = "access paths disabled"
        elif asof is not None:
            note = "ASOF source"
        elif not entry.indexes:
            note = f"no index on {entry.name}"
        else:
            with TRACER.span("plan", table=entry.name, var=var) as span:
                groups = extract_condition_groups(where, var)
                conditions = (
                    None
                    if groups is None
                    else [c for group in groups for c in group.conditions]
                )
                if conditions is None:
                    note = "WHERE not index-coverable"
                elif not conditions:
                    note = "no indexable conditions"
                else:
                    note = (
                        "no matching index; "
                        f"{len(conditions)} indexable condition(s) found"
                    )
                    roots, report = candidate_roots(
                        entry, conditions, order_by=order_by, groups=groups
                    )
                if span is not None:
                    span.annotate(
                        access="index" if roots is not None else "full scan",
                        estimated=(
                            report.estimated_candidates
                            if report is not None
                            else None
                        ),
                        indexes=(
                            list(report.used_indexes) if report is not None else []
                        ),
                        sort_elided=bool(
                            report is not None and report.sort_elided
                        ),
                    )
        if roots is None:
            if METRICS.enabled:
                METRICS.inc("query.scan_plans")
            return None, note
        self.last_plan = report
        if METRICS.enabled:
            METRICS.inc("query.index_plans")
        if entry.mvcc is not None or self._session() is not None:
            # Index hits may be stale by fetch time (MVCC defers
            # deindexing to GC; a 2PL writer can change a row's values
            # between our index probe and its S-lock) — candidates stay a
            # superset, nothing is settled.
            report.settled = []
        return roots, ""

    def _stream_roots(
        self, entry: TableEntry, roots: Optional[Iterable[TID]], lazy: bool
    ) -> Iterator[TupleValue]:
        """The current rows of *entry* under the reader's concurrency
        regime — every read of current rows (full scans, planner
        candidates, join probes) goes through here.  *roots* are the
        candidate root TIDs, or ``None`` for the whole table.

        Under an MVCC snapshot the read is lock-free: the index may
        surface dead or uncommitted versions (deindexing is deferred to
        GC), and the visibility probe filters them; rows are fetched
        eagerly.  Otherwise each root object (the paper's local address
        space) is S-locked as it streams out; the wait may block behind a
        writer, so currency is re-checked after the grant."""
        snapshot = self._read_snapshot(entry)
        if snapshot is not None:
            if roots is None:
                visible = _mvcc_read.snapshot_roots(entry, snapshot)
            else:
                visible = (
                    tid
                    for tid in roots
                    if _mvcc_read.tid_visible(entry, snapshot, tid)
                )
            for tid in visible:
                yield entry.store.fetch(tid)
            return
        self._lock_table(entry.name, LockMode.IS)
        for tid in list(entry.tids) if roots is None else roots:
            self._lock_object(entry.name, tid, LockMode.S)
            if tid in entry.tids:
                yield entry.store.fetch(tid, lazy)

    @staticmethod
    def _order_pushdown_path(
        query: ast.Query, var: str
    ) -> Optional[tuple[str, ...]]:
        """The attribute path an interesting-order pushdown could sort by:
        exactly one ascending ORDER BY item that is a plain
        single-attribute path on *var* (the planned range variable).  The
        planner compares it against its chosen index's key order and sets
        ``sort_elided`` when the B+-tree scan already delivers it."""
        if len(query.order_by) != 1:
            return None
        item = query.order_by[0]
        if item.descending:
            return None
        expr = item.expr
        if not (
            isinstance(expr, ast.Path)
            and expr.var == var
            and len(expr.attribute_names) == 1
            and not expr.has_subscript
        ):
            return None
        return expr.attribute_names

    def lookup_rows(
        self, name: str, attribute: str, value: Any
    ) -> Optional[Iterable[TupleValue]]:
        """Index-nested-loop support: the current tuples of *name* whose
        top-level *attribute* equals *value*, answered through an index —
        ``None`` when no suitable index exists (callers scan).  The rows
        stream out of a generator (the probe itself is a point lookup; the
        objects are fetched, eagerly decoded, as the join loop advances)."""
        if is_sys_table(name):
            return None
        entry = self.catalog.table(name)
        index = self._join_index(entry, attribute)
        if index is None:
            return None
        return self._stream_roots(entry, index.roots_for(value), lazy=False)

    def _join_index(
        self, entry: TableEntry, attribute: str
    ) -> Optional[ValueIndex]:
        """The index an inner range's ``var.ATTR = value`` probe goes
        through — the first value index keyed on exactly the top-level
        *attribute* that can name the owning row (a DATA_TID NF² index
        cannot, Section 4.2) — or ``None``: the range is scanned.
        :meth:`lookup_rows` and EXPLAIN both choose through this."""
        if not self.use_access_paths:
            return None
        for index in entry.value_indexes():
            if index.definition.attribute_path == (attribute,) and index.names_roots:
                return index
        return None

    def _read_snapshot(self, entry: TableEntry):
        """The MVCC snapshot the current thread's reads of *entry* run
        against, or None (2PL mode, an MVCC-exempt table, or a thread with
        no session).  Snapshot reads take **no locks at all** — visibility
        comes from version intervals, so readers never block writers and
        writers never block readers."""
        if self.mvcc is None or entry.mvcc is None:
            return None
        session = self._session()
        if session is None:
            return None
        return session._snapshot

    def iterate_table(
        self,
        name: str,
        asof: Optional[datetime.date] = None,
        lazy: bool = False,
    ) -> Iterator[TupleValue]:
        if is_sys_table(name):
            if asof is not None:
                raise TemporalError(f"table {name!r} is not versioned")
            yield from iterate_sys_view(self, name)
            return
        entry = self.catalog.table(name)
        if asof is None:
            yield from self._stream_roots(entry, None, lazy)
            return
        if entry.version_store is not None:
            # ASOF = a snapshot read at an old point on the *time* axis:
            # the same code path (snapshot_roots + interval_contains) MVCC
            # statement/transaction snapshots use on the LSN axis
            self._lock_table(name, LockMode.IS)
            time_snapshot = Snapshot(AXIS_TIME, canonical_timestamp(asof))
            for tid in _mvcc_read.snapshot_roots(entry, time_snapshot):
                yield entry.store.fetch(tid)
            return
        self._lock_table(name, LockMode.IS)
        manager = entry.temporal_manager
        if manager is None:
            raise TemporalError(f"table {name!r} is not versioned")
        existing = [
            tid
            for tid in entry.tids + entry.history_tids
            if manager.exists_at(tid, asof)
        ]
        for tid in existing:
            yield manager.load_asof(tid, entry.schema, asof)

    def scan_chunks(
        self, name: str, needed: Optional[frozenset] = None, batch: int = 256
    ) -> Optional[Iterator[tuple[int, dict[str, list]]]]:
        """Columnar batches of a flat table's current rows, or ``None``
        when the table shape (or the concurrency regime) wants the
        row-at-a-time path.

        Each batch is ``(row_count, {attribute: values})`` with rows in
        insertion (TID-list) order — the same order ``iterate_table``
        yields, so results stay byte-identical — holding the attributes
        in *needed* (all when ``None``), in batches of at least *batch*
        rows (:meth:`HeapStore.chunks`).  Only offered without a session:
        no locks are taken, which is exactly the single-user statement
        model the row path has in that case too."""
        if is_sys_table(name) or self._session() is not None:
            return None
        return self.catalog.table(name).store.chunks(needed, batch)

    # ======================================================================
    # Object-level access
    # ======================================================================

    def tids(self, table: str) -> list[TID]:
        """Current top-level TIDs (root MD subtuples / heap tuples)."""
        return list(self.catalog.table(table).tids)

    def open_object(self, table: str, tid: TID) -> OpenObject:
        """Open a complex object for navigation / partial reads.

        Mutations through the returned handle bypass index maintenance —
        use :meth:`update` with a callable for indexed tables.
        """
        return self.catalog.table(table).store.open(tid)

    def table_value(self, table: str, asof: Optional[datetime.date] = None) -> TableValue:
        """The table's full current (or ASOF) contents."""
        out = TableValue(self.table_schema(table))
        out.rows.extend(self.iterate_table(table, asof))
        return out

    def render(self, table: str) -> str:
        return render_table(self.table_value(table))

    # -- workstation check-out / check-in -----------------------------------------

    def checkout(self, table: str, tid: TID) -> bytes:
        """Export one complex object as a self-contained byte bundle (the
        paper's page-level "sent to a workstation"); the original stays in
        place."""
        objects = self.catalog.table(table).store.objects("checkout")
        return objects.export_object(tid).to_bytes()

    def checkin(self, table: str, blob: bytes) -> TID:
        """Import a checked-out bundle as a new complex object of *table*
        (typically on another Database instance — the workstation)."""
        from repro.storage.complex_object import ObjectBundle

        entry = self.catalog.table(table)
        objects = entry.store.objects("checkin")
        self._begin_write(entry)
        with self._wal_scope():
            tid = objects.import_object(ObjectBundle.from_bytes(blob))
            entry.add_root(tid)
            self._note_mvcc_insert(entry, tid)
            entry.store.index(tid)
            self._lock_object(table, tid, LockMode.X)
            return tid

    # -- tuple names -----------------------------------------------------------------

    def names(self, table: str) -> TupleNameService:
        entry = self.catalog.table(table)
        return TupleNameService(entry.store.objects("tuple names"), entry.schema)

    def resolve_name(self, table: str, name: Union[str, TupleName]):
        if isinstance(name, str):
            name = TupleName.decode(name)
        return self.names(table).resolve(name)

    # ======================================================================
    # Transactions (multi-statement atomicity)
    # ======================================================================

    @contextmanager
    def transaction(self):
        """A multi-statement atomicity scope::

            with db.transaction():
                db.execute("UPDATE ...")
                db.execute("DELETE ...")   # an exception rolls both back

        One :meth:`_commit_scope`, so it commits like an autocommit
        statement.  Abort puts back every written page by before-image:
        root TIDs, t-names and index addresses are exactly as before.
        Mutating versioned tables inside a transaction is rejected — their
        history lives outside the pages and cannot be unwritten.
        """
        if self._active_txn is not None:
            raise ExecutionError("a transaction is already active")
        txn = _Transaction(self)
        with contextmanager(self._commit_scope)(self._session(), txn):
            self.buffer.before_images, self._active_txn = txn.images, txn
            try:
                yield txn
            finally:
                self.buffer.before_images = self._active_txn = None

    # ======================================================================
    # Integrity checking
    # ======================================================================

    def verify(self, table: Optional[str] = None) -> list[str]:
        """Consistency check (CHECK TABLE): walks every stored object,
        validates Mini-Directory structure, page-pool separation, and
        index contents.  Returns a list of problem descriptions (empty =
        healthy)."""
        problems: list[str] = []
        entries = (
            [self.catalog.table(table)] if table is not None else self.catalog.tables()
        )
        for entry in entries:
            name = entry.name
            # every current tuple must load and re-validate against its schema
            loaded: dict[TID, TupleValue] = {}
            for tid in entry.tids:
                try:
                    loaded[tid] = entry.store.fetch(tid)
                except Exception as exc:  # noqa: BLE001 — report, don't die
                    problems.append(f"{name}: {tid} failed to load: {exc}")
            problems.extend(entry.store.verify(loaded))
            problems.extend(self._verify_indexes(entry, loaded))
        return problems

    def _verify_indexes(
        self, entry: TableEntry, loaded: dict[TID, TupleValue]
    ) -> list[str]:
        problems: list[str] = []
        for index_name, index in entry.indexes.items():
            if isinstance(index, TextIndex):
                continue
            path = index.definition.attribute_path
            for tid, row in loaded.items():
                for key in _keys_along_path(row, path):
                    hits = index.search(key)
                    roots = {
                        a.root if hasattr(a, "root") else a for a in hits
                    }
                    if index.names_roots and tid not in roots:
                        problems.append(
                            f"{entry.name}: index {index_name} misses "
                            f"{tid} (key {key!r})"
                        )
        return problems

    @property
    def _catalog_path(self) -> Optional[str]:
        if self._path is not None:
            return self._path + ".catalog.json"
        return None

    def save(self) -> None:
        """Flush pages and persist the catalog (disk-backed databases).

        The catalog lives in a JSON sidecar next to the page file; value
        and text indexes are rebuilt on reopen (their definitions are
        saved, not their trees).  With a WAL attached this is simply a
        checkpoint (pages flushed + synced, log truncated, sidecar
        rewritten durably).
        """
        path = self._catalog_path
        if path is None:
            raise StorageError_(
                "save() needs a disk-backed database (pass path= to Database)"
            )
        if self.wal is not None:
            self.checkpoint()
            return
        state = self._catalog_state()
        self.flush()
        self._file.sync()  # pages must be durable before the catalog points at them
        self._write_catalog_sidecar(state)

    def _catalog_state(self) -> dict:
        """The full catalog as plain JSON data (what the sidecar,
        checkpoint records and a replica's attach snapshot carry)."""
        return {
            "format": SNAPSHOT_FORMAT,
            "tables": [self._table_state(e) for e in self.catalog.tables()],
        }

    def _catalog_delta(self) -> dict:
        """The catalog changes since the last logged commit or checkpoint
        (what a COMMIT record carries; see :mod:`repro.wal.delta`).
        Drains the catalog's journal."""
        return self.catalog.take_delta(
            lambda entry: self._table_state(entry, stats=False)
        )

    @staticmethod
    def _table_state(entry: TableEntry, stats: bool = True) -> dict:
        """One catalog entry as plain JSON data.  Index statistics ride
        along in snapshots (tooling can inspect them without opening the
        trees; reopen re-derives exact values while rebuilding) but not in
        COMMIT deltas."""
        from repro.model.ddl import schema_to_ddl

        indexes = []
        for name, index in entry.indexes.items():
            definition = index.definition
            index_state = {
                "name": name,
                "path": list(definition.attribute_path),
                "text": isinstance(index, TextIndex),
                "mode": definition.mode.value,
                "fragment_length": getattr(index, "fragment_length", None),
            }
            if stats:
                index_state["stats"] = index.stats.snapshot()
            indexes.append(index_state)
        return {
            "ddl": schema_to_ddl(entry.schema),
            "versioned": entry.versioned,
            "versioning": entry.versioning,
            "timestamp_axis": entry.timestamp_axis,
            "segment": entry.segment.state(),
            "tids": [[t.page, t.slot] for t in entry.tids],
            "history_tids": [[t.page, t.slot] for t in entry.history_tids],
            "version_store": (
                entry.version_store.state()
                if entry.version_store is not None
                else None
            ),
            "object_ids": [
                [[t.page, t.slot], oid] for t, oid in entry.object_ids.items()
            ],
            "indexes": indexes,
        }

    def _write_catalog_sidecar(self, state: dict) -> None:
        """Atomically (and durably) replace the catalog sidecar file."""
        path = self._catalog_path
        assert path is not None
        temp = path + ".tmp"
        with open(temp, "w") as handle:
            json.dump(state, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)

    def _load_catalog(self, state: Optional[dict] = None) -> None:
        """Rebuild the catalog from *state* (recovered from the WAL) or,
        failing that, from the JSON sidecar next to the page file."""
        if state is None:
            path = self._catalog_path
            if path is None or not os.path.exists(path):
                return
            with open(path) as handle:
                state = json.load(handle)
        for table_state in state["tables"]:
            self._restore_table_entry(table_state)

    def _restore_table_entry(
        self, table_state: dict, current_only: bool = False
    ) -> TableEntry:
        """Rebuild one catalog entry (and its indexes) from its serialized
        state.  Called per table on open, and by replica apply
        (:mod:`repro.replication`) to install shipped catalog changes —
        the latter passes *current_only* so flat index builds skip the
        primary's dead MVCC versions (see :meth:`create_index`)."""
        schema = parse_create_table(table_state["ddl"])
        entry = TableEntry(
            schema=schema,
            segment=Segment.restore(self.buffer, table_state["segment"]),
            versioned=table_state["versioned"],
            versioning=table_state.get("versioning"),
        )
        attach_store(entry, self.structure)
        entry.tids = [TID(*pair) for pair in table_state["tids"]]
        entry.history_tids = [
            TID(*pair) for pair in table_state.get("history_tids", [])
        ]
        entry.timestamp_axis = table_state.get("timestamp_axis")
        if table_state["version_store"] is not None:
            entry.version_store = VersionStore.restore(
                table_state["version_store"]
            )
            entry.object_ids = {
                TID(*tid): oid for tid, oid in table_state["object_ids"]
            }
        # orphan sweep + MVCC bootstrap must run before the index
        # rebuild below — it scans the heap and would index orphans
        if self.mvcc is not None:
            entry.store.sweep_orphans()
        self._bootstrap_mvcc(entry)
        self.catalog.add_table(entry)
        for index_state in table_state["indexes"]:
            definition = IndexDefinition(
                name=index_state["name"], table=schema.name,
                attribute_path=tuple(index_state["path"]),
                mode=AddressingMode(index_state["mode"]),
            )
            text = index_state["text"]
            fragment_length = (index_state["fragment_length"] or 3) if text else None
            self._add_index(definition, fragment_length, current_only)
        return entry

    @property
    def io_stats(self):
        return self.buffer.stats

    def reset_io_stats(self) -> None:
        self.buffer.stats.reset()

    def flush(self) -> None:
        self.buffer.flush_all()

    def close(self) -> None:
        # stop both samplers first: no repro-* thread survives a closed
        # database (a leaked recorder would sample freed engine state)
        self.ts.stop()
        self.ash.stop()
        if self.replication is not None:
            self.replication.shutdown()
            self.replication = None
        if self.mvcc is not None:
            with self._write_latch:
                # final GC drain: no snapshots survive close, so every
                # closed version is reclaimable; the checkpoint below (or
                # flush) persists the compacted heap.  Any page this
                # dirties outside a WAL txn is folded into a commit by
                # checkpoint()'s stray-unlogged-changes path.
                _mvcc_gc.collect(self)
        if self.wal is not None:
            try:
                if self.wal.failure is None:
                    self.checkpoint()
            finally:
                self.wal.close()
        else:
            self.flush()
        self._file.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class _Transaction:
    """What an explicit transaction's abort restores: the buffer keeps
    each page's bytes at its first write, :meth:`note_write` each written
    table's entry state.  Writers are serialized (the global writer
    token), so no one else's changes are on those pages."""

    def __init__(self, db: Database):
        self._db = db
        self.images: dict = {}  # the buffer's page before-images
        #: table -> (entry, its mark, roots written in place)
        self._entries: dict[str, tuple] = {}

    def note_write(self, entry: TableEntry, tid: Optional[TID] = None) -> None:
        """Keep *entry*'s state at the first write to it; *tid* is a root
        about to be written in place."""
        noted = self._entries.get(entry.name)
        if noted is None or noted[0] is not entry:
            noted = self._entries[entry.name] = (entry, entry.mark(), set())
        if tid is not None:
            noted[2].add(tid)

    def abort(self, wal) -> None:
        """Deindex the roots whose index entries changed; restore pages
        and entries; reindex those roots that are current again; drop the
        pending MVCC versions; log ABORT alone (*wal*: it owns the log).
        Every root TID — t-name, head of index addresses — stays put."""
        db = self._db
        try:
            for entry, mark, roots in self._entries.values():
                if mark[4] is None:
                    roots |= set(entry.tids).symmetric_difference(mark[0])
                else:
                    # copy-on-write left the committed versions' postings
                    # alone (snapshot readers probe them): drop only those
                    # of the versions this transaction created
                    roots |= set(entry.tids)
                    roots -= set(mark[0])
                for tid in roots:
                    entry.store.deindex(tid)
            restored = db.buffer.restore(self.images)
            for entry, mark, roots in self._entries.values():
                store = entry.mvcc
                if entry.rewind(mark):
                    db.schema_epoch += 1  # recompile plans bound to the ALTER
                if entry.mvcc is not store:
                    # an ALTER's purge dropped every retained version's
                    # postings along with the store that kept them
                    db.mvcc.restore_table(entry.mvcc)
                    current = [version.tid for version in entry.mvcc.versions()]
                elif entry.mvcc is None:
                    current = [tid for tid in entry.tids if tid in roots]
                else:
                    continue
                for tid in current:
                    entry.store.index(tid)
            if db.mvcc is not None:
                db.mvcc.drop_pending()
            if wal is not None:
                wal.abort(restored)
        except Exception as exc:
            if wal is None:
                raise
            wal.poison(exc)


#: AST statement class -> the short kind label used by SYS.QUERIES and the
#: ``query.latency_ms`` histogram's ``kind`` label
_STATEMENT_KINDS = {
    "Query": "SELECT",
    "InsertStatement": "INSERT",
    "UpdateStatement": "UPDATE",
    "DeleteStatement": "DELETE",
    "SubInsertStatement": "INSERT",
    "SubUpdateStatement": "UPDATE",
    "SubDeleteStatement": "DELETE",
    "CreateTableStatement": "CREATE",
    "DropTableStatement": "DROP",
    "CreateIndexStatement": "CREATE",
    "DropIndexStatement": "DROP",
    "AlterTableStatement": "ALTER",
    "ExplainStatement": "EXPLAIN",
}


def _statement_kind(statement: ast.Statement) -> str:
    return _STATEMENT_KINDS.get(type(statement).__name__, "OTHER")


def _statement_tables(statement: ast.Statement) -> list[str]:
    """Top-level table names a statement touches (best effort; nested
    paths and ALTER payloads are not chased)."""
    if isinstance(statement, ast.ExplainStatement):
        return _statement_tables(statement.target)
    if isinstance(statement, ast.Query):
        out: list[str] = []
        for range_ in statement.ranges:
            if range_.source.table is not None:
                if range_.source.table not in out:
                    out.append(range_.source.table)
        return out
    table = getattr(statement, "table", None)
    if isinstance(table, str):
        return [table]
    return []


#: statements that select the rows they write through a WHERE clause
_DML_STATEMENTS = (
    ast.UpdateStatement,
    ast.DeleteStatement,
    ast.SubInsertStatement,
    ast.SubUpdateStatement,
    ast.SubDeleteStatement,
)


def _dml_ranges(statement: ast.Statement) -> tuple[ast.Range, ...]:
    """The FROM ranges of a DML statement (a root UPDATE/DELETE ranges
    its variable over its table)."""
    if isinstance(statement, (ast.UpdateStatement, ast.DeleteStatement)):
        return (ast.Range(statement.var, ast.Source(table=statement.table)),)
    return statement.ranges  # type: ignore[union-attr]


def _keys_along_path(row: TupleValue, path: tuple[str, ...]):
    """Every non-null value of *path* inside one (nested) tuple."""
    if len(path) == 1:
        value = row[path[0]]
        if value is not None:
            yield value
        return
    for child in row[path[0]]:
        yield from _keys_along_path(child, path[1:])


def _as_path(path: Union[str, tuple[str, ...]]) -> tuple[str, ...]:
    if isinstance(path, str):
        return tuple(part for part in path.split(".") if part)
    return tuple(path)


def _literal_to_plain(literal: ast.TupleLiteral, schema: TableSchema) -> dict:
    """Convert an INSERT tuple literal to plain nested data, checking the
    bracket kinds ('{}' relations vs '<>' lists) against the schema."""
    if len(literal.values) != len(schema.attributes):
        raise DataError(
            f"INSERT into {schema.name!r} needs {len(schema.attributes)} "
            f"values, got {len(literal.values)}"
        )
    out: dict = {}
    for attr, value in zip(schema.attributes, literal.values):
        if isinstance(value, ast.TableLiteral):
            if not attr.is_table:
                raise DataError(f"attribute {attr.name!r} is atomic")
            assert attr.table is not None
            if value.ordered != attr.table.ordered:
                wanted = "'<...>'" if attr.table.ordered else "'{...}'"
                raise DataError(
                    f"attribute {attr.name!r} is "
                    f"{'a list' if attr.table.ordered else 'a relation'}; "
                    f"use {wanted}"
                )
            out[attr.name] = [
                _literal_to_plain(row, attr.table) for row in value.rows
            ]
        elif isinstance(value, ast.Literal):
            if attr.is_table:
                raise DataError(
                    f"attribute {attr.name!r} is table-valued; use "
                    f"{'<...>' if attr.table.ordered else '{...}'}"  # type: ignore[union-attr]
                )
            out[attr.name] = value.value
        else:  # pragma: no cover
            raise DataError(f"unexpected literal {value!r}")
    return out
