"""Sessions: per-client connections routed through the lock manager.

A :class:`Session` is the unit of concurrency the server hands to each
client thread.  It wraps one shared :class:`~repro.database.Database` and
scopes locking:

* **autocommit** (the default) — every statement runs in its own lock
  transaction, released when the statement finishes (after its WAL
  commit), exactly mirroring the single-user path's semantics;
* **explicit** — ``with session.transaction(): ...`` holds locks across
  statements (strict two-phase locking) and maps onto the engine's
  single-user :meth:`~repro.database.Database.transaction` scope, which
  is entered lazily at the first write.  Writers serialize on a global
  WAL token taken *through* the lock manager, so writer/reader waits all
  participate in deadlock detection.

Reads take table-``IS`` + object-``S`` locks as the planner's candidate
stream delivers objects; writes take table-``IX`` + object-``X`` (DDL
takes table-``X``).  A deadlock or lock timeout surfaces as
:class:`~repro.errors.ConcurrencyError` (an ``ExecutionError``); inside
an explicit transaction it also aborts the transaction — already-applied
statements are rolled back and the locks released so the surviving
transactions can proceed.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.concurrency.locks import LockMode, Resource
from repro.errors import ConcurrencyError, ExecutionError
from repro.obs import TRACER

if TYPE_CHECKING:
    from repro.database import Database
    from repro.model.values import TableValue
    from repro.storage.tid import TID

#: the global single-writer token (see docs/CONCURRENCY.md) — taken in X
#: by any session about to mutate, through the lock manager so a writer
#: waiting behind another writer shows up in the wait-for graph.
WAL_RESOURCE: Resource = ("wal",)

_session_counter = itertools.count(1)


class Session:
    """One client's connection to a shared :class:`Database`.

    Thread affinity: a session is meant to be driven by one thread at a
    time (each server connection owns one).  Many sessions on one
    database may run concurrently.
    """

    def __init__(
        self,
        db: "Database",
        name: Optional[str] = None,
        lock_timeout: Optional[float] = None,
    ):
        self._db = db
        self.name = name or f"session-{next(_session_counter)}"
        #: per-acquire lock timeout (None: the lock manager's default)
        self.lock_timeout = lock_timeout
        #: lock transaction id while a scope (statement or explicit
        #: transaction) is open
        self._txn: Optional[int] = None
        self._explicit: Optional["_SessionTransaction"] = None
        #: the MVCC snapshot this session's statements read from (None:
        #: 2PL database, or between statements).  Statement-scoped in
        #: autocommit; pinned for the whole scope of
        #: ``transaction(isolation="snapshot")``.
        self._snapshot = None
        self._closed = False
        # per-statement lock accounting (read by EXPLAIN ANALYZE)
        self._stmt_lock_requests = 0
        self._stmt_lock_waits = 0
        self.last_lock_requests = 0
        self.last_lock_waits = 0
        #: observability: SYS.SESSIONS exposes these
        self.thread_name = threading.current_thread().name
        self.statements = 0
        #: the statement this session is inside right now (ASH samples it)
        self.current_statement: Optional[str] = None
        #: OS thread ident while inside a statement — lets the wait
        #: registry and the ASH sampler read this session's live state
        self.thread_ident: Optional[int] = None
        #: lifetime wait totals {event: [count, time_ms]} (SYS.SESSIONS)
        self.wait_totals: dict[str, list] = {}
        #: the last finished statement's wait breakdown
        self.last_waits: dict[str, tuple[int, float]] = {}
        #: a trace id armed (``TRACE <id>``) for this session's next
        #: statement — armed on whichever thread runs that statement
        self.trace_id: Optional[str] = None
        self._waits_latch = threading.Lock()
        db._register_session(self)

    # -- plumbing ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError(f"session {self.name!r} is closed")
        tx = self._explicit
        if tx is not None and tx.aborted:
            raise ConcurrencyError(
                f"session {self.name!r}: the current transaction was "
                "aborted (deadlock victim or lock timeout); leave the "
                "transaction block and retry"
            )

    @contextmanager
    def _statement(self, description: Optional[str] = None):
        """Route one statement through this session.

        Publishes the session in the database's thread-local context (so
        engine read/write paths acquire locks through it), opens a
        statement-scoped lock transaction in autocommit mode, and — on a
        concurrency abort inside an explicit transaction — rolls the
        transaction back immediately so the held locks stop blocking the
        survivors even if the caller swallows the exception.

        *description* (the statement text, or an API-call label) plus
        the thread ident published here are what the ASH sampler and the
        wait registry use to attribute this session's live state.
        """
        self._check_open()
        ctx = self._db._session_ctx
        previous = getattr(ctx, "current", None)
        ctx.current = self
        autocommit = self._txn is None
        if autocommit:
            self._txn = self._db.locks.begin(self.name)
        snapshot = None
        if self._db.mvcc is not None and self._snapshot is None:
            # read-committed statement snapshot: this statement sees every
            # commit up to now, and nothing that commits while it runs.
            # (Inside transaction(isolation="snapshot") the pinned
            # snapshot is already installed and kept instead.)
            snapshot = self._db.mvcc.acquire(session=self.name)
            if self._explicit is not None and self._explicit._db_txn is not None:
                # mid-transaction statement: tag the snapshot with the
                # open write scope so it reads the txn's own pending work
                snapshot.txn = self._db.mvcc.current_txn()
            self._snapshot = snapshot
        self._stmt_lock_requests = 0
        self._stmt_lock_waits = 0
        self.thread_name = threading.current_thread().name
        self.thread_ident = threading.get_ident()
        self.current_statement = description
        self.statements += 1
        previous_label = TRACER.set_session(self.name)
        if self.trace_id is not None:
            TRACER.arm_trace_id(self.trace_id)
        try:
            yield
        except ConcurrencyError:
            if not autocommit and self._explicit is not None:
                self._explicit.abort()
            raise
        finally:
            if self.trace_id is not None:
                # an id the statement left unconsumed stays with the
                # session, never with this (pooled) thread
                self.trace_id = TRACER.disarm()
            TRACER.set_session(previous_label)
            self.current_statement = None
            self.last_lock_requests = self._stmt_lock_requests
            self.last_lock_waits = self._stmt_lock_waits
            # API-path statements (session.insert(...) etc.) bypass
            # Database.execute, so their waits are still parked in the
            # registry — collect them here; the execute path has already
            # drained them into _note_waits via _record_statement
            from repro.obs import WAITS

            leftover = WAITS.take_statement()
            if leftover:
                self._note_waits(leftover)
            if snapshot is not None:
                self._db.mvcc.release(snapshot)
                if self._snapshot is snapshot:
                    self._snapshot = None
            if autocommit and self._txn is not None:
                self._db.locks.release_all(self._txn)
                self._txn = None
            ctx.current = previous

    def _note_waits(self, waits: dict[str, tuple[int, float]]) -> None:
        """Fold one statement's wait breakdown into the session's
        lifetime totals (called from the engine's finish line)."""
        if not waits:
            return
        with self._waits_latch:
            self.last_waits = dict(waits)
            for event, (count, ms) in waits.items():
                cell = self.wait_totals.get(event)
                if cell is None:
                    self.wait_totals[event] = [count, ms]
                else:
                    cell[0] += count
                    cell[1] += ms

    def wait_summary(self) -> dict[str, tuple[int, float]]:
        """Lifetime ``{event: (count, time_ms)}`` for this session."""
        with self._waits_latch:
            return {e: (c[0], c[1]) for e, c in self.wait_totals.items()}

    def lock(self, resource: Resource, mode: LockMode) -> None:
        """Acquire *mode* on *resource* for the current scope (engine
        hook — called from the database's read/write paths)."""
        if self._txn is None:  # outside any statement scope: nothing to tie
            return             # the lock to (engine running single-user)
        self._stmt_lock_requests += 1
        waited = self._db.locks.acquire(
            self._txn, resource, mode, timeout=self.lock_timeout
        )
        if waited:
            self._stmt_lock_waits += 1

    def _before_write(self) -> None:
        """First-mutation hook, called from the engine's WAL scope.

        Serializes writers on the global WAL token (single-writer commit
        ordering — the WAL has one transaction slot) and, inside an
        explicit session transaction, lazily enters the engine's
        single-user transaction scope."""
        self.lock(WAL_RESOURCE, LockMode.X)
        if self._snapshot is not None and self._db.mvcc is not None:
            # a commit may have landed between statement start and token
            # grant — a read-committed write must see it.  Pinned
            # (snapshot-isolation) snapshots stay put and rely on
            # first-committer-wins conflict detection instead.
            self._db.mvcc.refresh(self._snapshot)
        tx = self._explicit
        if tx is not None:
            tx.ensure_db_transaction()

    # -- public API --------------------------------------------------------

    def execute(self, text: str) -> Any:
        """Execute any statement (see :meth:`Database.execute`)."""
        with self._statement(text.strip()):
            return self._db.execute(text)

    def query(self, text: str) -> "TableValue":
        with self._statement(text.strip()):
            return self._db.query(text)

    def insert(self, table: str, row: Any, **kwargs) -> "TID":
        with self._statement(f"<api> INSERT INTO {table}"):
            return self._db.insert(table, row, **kwargs)

    def insert_many(self, table: str, rows: Iterable[Any], **kwargs) -> list:
        with self._statement(f"<api> INSERT MANY INTO {table}"):
            return self._db.insert_many(table, rows, **kwargs)

    def update(self, table: str, tid: "TID", changes, **kwargs):
        with self._statement(f"<api> UPDATE {table}"):
            return self._db.update(table, tid, changes, **kwargs)

    def delete(self, table: str, tid: "TID", **kwargs) -> None:
        with self._statement(f"<api> DELETE FROM {table}"):
            self._db.delete(table, tid, **kwargs)

    def transaction(
        self, isolation: Optional[str] = None
    ) -> "_SessionTransaction":
        """A multi-statement atomic scope::

            with session.transaction():
                session.execute("UPDATE ...")
                session.execute("DELETE ...")  # atomically, under locks

        *isolation* picks the concurrency protocol:

        * ``"2pl"`` — strict two-phase locking (the only choice on a
          non-MVCC database);
        * ``"snapshot"`` — snapshot isolation (MVCC databases): every
          read in the scope sees the one snapshot taken at entry, and a
          write to a row version committed after that snapshot raises
          :class:`~repro.errors.SerializationError`
          (first-committer-wins);
        * ``None`` (default) — ``"snapshot"`` when the database runs
          MVCC, else ``"2pl"``.
        """
        self._check_open()
        if isolation not in (None, "2pl", "snapshot"):
            raise ExecutionError(
                f"unknown isolation level {isolation!r}; "
                "expected '2pl' or 'snapshot'"
            )
        if isolation == "snapshot" and self._db.mvcc is None:
            raise ExecutionError(
                "isolation='snapshot' needs an MVCC database — open it "
                "with Database(mvcc=True)"
            )
        if isolation is None:
            isolation = "snapshot" if self._db.mvcc is not None else "2pl"
        return _SessionTransaction(self, isolation=isolation)

    @property
    def in_transaction(self) -> bool:
        """True inside an explicit ``session.transaction()`` block."""
        return self._explicit is not None

    def locks_held(self) -> list:
        """This session's current grants (for tests and ``.locks``)."""
        if self._txn is None:
            return []
        return [
            info
            for info in self._db.locks.snapshot()
            if info.txn == self._txn and info.granted
        ]

    def close(self) -> None:
        if self._closed:
            return
        if self._explicit is not None:
            self._explicit.abort()
        if self._txn is not None:
            self._db.locks.release_all(self._txn)
            self._txn = None
        self._closed = True
        self._db._unregister_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "in-txn" if self._explicit is not None else "idle"
        )
        return f"<Session {self.name} [{state}]>"


class _SessionTransaction:
    """Explicit transaction scope for one session (strict 2PL).

    The engine's :meth:`~repro.database.Database.transaction` scope is
    entered lazily at the first write — read-only transactions never
    touch the WAL, and two sessions can hold read locks concurrently
    without fighting over the engine's single transaction slot (writers
    serialize on the WAL token before entering it)."""

    def __init__(self, session: Session, isolation: str = "2pl"):
        self._session = session
        self.isolation = isolation
        self._db_txn = None  # the engine's transaction scope, once entered
        self._pinned = None  # the scope's pinned MVCC snapshot, if any
        self.aborted = False
        self._entered = False

    def ensure_db_transaction(self) -> None:
        """Enter the engine's transaction scope at the first write (the
        caller already holds the WAL token in X)."""
        if self._db_txn is None and not self.aborted:
            txn = self._session._db.transaction()
            txn.__enter__()
            self._db_txn = txn

    def abort(self) -> None:
        """Roll back applied work and release this transaction's locks —
        used for deadlock victims / lock timeouts and session close.

        Rollback runs *before* the locks drop (the victim still owns its
        write set), then ``release_all`` breaks the cycle."""
        if self.aborted:
            return
        self.aborted = True
        session = self._session
        self._release_pinned()
        if self._db_txn is not None:
            exc = ConcurrencyError("transaction aborted")
            try:
                self._db_txn.__exit__(type(exc), exc, None)
            finally:
                self._db_txn = None
        if session._txn is not None:
            session._db.locks.release_all(session._txn)
            session._txn = None

    def __enter__(self) -> "_SessionTransaction":
        session = self._session
        session._check_open()
        if session._txn is not None:
            raise ExecutionError(
                f"session {session.name!r} already has an active transaction"
            )
        session._txn = session._db.locks.begin(session.name)
        if self.isolation == "snapshot":
            # one snapshot for the whole scope, registered so version GC
            # keeps everything it can see until the scope ends
            self._pinned = session._db.mvcc.acquire(
                pinned=True, isolation="snapshot", session=session.name
            )
            session._snapshot = self._pinned
        session._explicit = self
        self._entered = True
        return self

    def _release_pinned(self) -> None:
        if self._pinned is None:
            return
        session = self._session
        session._db.mvcc.release(self._pinned)
        if session._snapshot is self._pinned:
            session._snapshot = None
        self._pinned = None

    def __exit__(self, exc_type, exc, tb) -> bool:
        session = self._session
        try:
            if self.aborted:
                # rolled back mid-scope (deadlock victim); surface it on a
                # clean exit so the caller cannot mistake it for a commit
                if exc_type is None:
                    raise ConcurrencyError(
                        f"session {session.name!r}: transaction was aborted "
                        "(deadlock victim or lock timeout) — its effects "
                        "were rolled back; retry"
                    )
                return False
            if self._db_txn is not None:
                # commit (its WAL fsync) or abort, either way *before* the
                # locks drop below
                ctx = session._db._session_ctx
                previous = getattr(ctx, "current", None)
                ctx.current = session
                try:
                    self._db_txn.__exit__(exc_type, exc, tb)
                finally:
                    ctx.current = previous
                    self._db_txn = None
            return False
        finally:
            session._explicit = None
            self._release_pinned()
            if session._txn is not None:
                session._db.locks.release_all(session._txn)
                session._txn = None
