"""Snapshots and the per-database MVCC manager.

A :class:`Snapshot` is a point on a version axis:

* ``AXIS_LSN`` — the MVCC axis.  The point is a **commit sequence number**
  and the snapshot sees exactly the versions committed at or before it.
* ``AXIS_TIME`` — the temporal axis.  The point is a canonical timestamp
  (:func:`repro.temporal.versions.canonical_timestamp`) and the snapshot
  is what ``ASOF t`` has always meant: the table as of *t*.

Both are answered by :func:`repro.mvcc.read.snapshot_roots` through the
same visibility predicate — ``ASOF`` is literally a snapshot at an old
point on a different axis.

Commit sequence vs WAL byte LSN
-------------------------------

The WAL's record LSNs are byte offsets and reset to the file header when a
checkpoint truncates the log, so they are not monotonic over the life of a
database.  The manager therefore allocates its own strictly increasing
*commit sequence* (one tick per committed write scope) to stamp versions
with, and merely remembers the WAL LSN of the latest commit record for
observability (``SYS.TRANSACTIONS``).  Version chains are not persisted:
on open every committed row is bootstrapped as "visible since commit 0",
which is exact — an offline database has no active snapshots to preserve
history for.

Write scopes
------------

The session layer's global WAL writer token means at most one writing
transaction runs at a time, so the manager tracks a single current write
scope: ``begin_scope`` opens it (allocating a transaction id and linking
the writer's snapshot for read-your-own-writes), nested statement scopes
just increase the depth, and the depth-0 ``end_scope`` atomically stamps
every pending version with the next commit sequence number, queues closed
versions for GC, and publishes the new ``committed_lsn`` — all under the
manager latch so a concurrently acquired snapshot sees either none or all
of a transaction's versions.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.obs import METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mvcc.store import MvccStore, MvccVersion

#: version axes a snapshot can live on
AXIS_LSN = "lsn"
AXIS_TIME = "time"


class Snapshot:
    """A consistent read point: an axis, a point on it, and (for writers)
    the transaction whose uncommitted versions the snapshot may see."""

    __slots__ = ("axis", "point", "txn", "pinned", "isolation", "session", "sid")

    def __init__(
        self,
        axis: str,
        point: float,
        *,
        txn: Optional[int] = None,
        pinned: bool = False,
        isolation: str = "statement",
        session: Optional[str] = None,
        sid: int = 0,
    ):
        self.axis = axis
        self.point = point
        self.txn = txn
        self.pinned = pinned
        self.isolation = isolation
        self.session = session
        self.sid = sid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Snapshot({self.axis}={self.point!r}, isolation={self.isolation},"
            f" pinned={self.pinned}, txn={self.txn})"
        )


class MvccManager:
    """Per-database MVCC state: commit sequencing, the active-snapshot
    registry, the single write scope, and the version GC queue."""

    def __init__(self) -> None:
        self._latch = threading.Lock()
        #: highest committed commit-sequence number; new snapshots read here
        self.committed_lsn = 0.0
        #: WAL byte LSN of the latest commit record (observability only)
        self.last_wal_lsn: Optional[int] = None
        self._next_sid = 0
        self._next_txn = 0
        self._active: dict[int, Snapshot] = {}
        # current write scope (at most one writer thanks to the WAL token)
        self._scope_depth = 0
        self._scope_txn: Optional[int] = None
        self._scope_snapshot: Optional[Snapshot] = None
        # versions written by the current scope, awaiting their commit stamp
        self._pending: list[tuple["MvccStore", "MvccVersion"]] = []
        # (end_lsn, store, tid) of closed versions, FIFO by end_lsn
        self._gc_queue: deque[tuple[float, "MvccStore", object]] = deque()

    # -- snapshots -----------------------------------------------------------

    def acquire(
        self,
        *,
        pinned: bool = False,
        isolation: str = "statement",
        session: Optional[str] = None,
    ) -> Snapshot:
        """Register a new snapshot at the current committed LSN."""
        with self._latch:
            self._next_sid += 1
            snap = Snapshot(
                AXIS_LSN,
                self.committed_lsn,
                pinned=pinned,
                isolation=isolation,
                session=session,
                sid=self._next_sid,
            )
            self._active[snap.sid] = snap
        METRICS.inc("mvcc.snapshots", isolation=isolation)
        return snap

    def release(self, snapshot: Snapshot) -> None:
        with self._latch:
            self._active.pop(snapshot.sid, None)

    def refresh(self, snapshot: Snapshot) -> None:
        """Advance an (unpinned) snapshot to the latest committed LSN.

        Used by write statements after they win the WAL writer token: a
        commit may have landed between statement start and token grant, and
        a read-committed write must see it (pinned snapshots instead rely
        on first-committer-wins conflict detection)."""
        if snapshot.pinned:
            return
        with self._latch:
            snapshot.point = self.committed_lsn

    def active_snapshots(self) -> list[Snapshot]:
        with self._latch:
            return list(self._active.values())

    def watermark(self) -> float:
        """Oldest point any active snapshot reads at; versions whose life
        ended at or before it are invisible to every present and future
        snapshot."""
        with self._latch:
            return self._watermark_locked()

    def _watermark_locked(self) -> float:
        w = self.committed_lsn
        for snap in self._active.values():
            if snap.point < w:
                w = snap.point
        return w

    # -- write scopes --------------------------------------------------------

    def begin_scope(self, snapshot: Optional[Snapshot] = None) -> int:
        """Enter a write scope; returns the scope's transaction id.

        *snapshot* is the writing session's current snapshot (if any); it
        is tagged with the transaction id so the writer reads its own
        uncommitted versions."""
        with self._latch:
            self._scope_depth += 1
            if self._scope_depth == 1:
                self._next_txn += 1
                self._scope_txn = self._next_txn
            if snapshot is not None:
                # tag at any depth: a statement snapshot acquired inside
                # an already-open transaction scope must also read the
                # transaction's pending versions
                snapshot.txn = self._scope_txn
                self._scope_snapshot = snapshot
            return self._scope_txn  # type: ignore[return-value]

    def current_txn(self) -> Optional[int]:
        return self._scope_txn

    def scope_depth(self) -> int:
        return self._scope_depth

    def note_pending(self, store: "MvccStore", version: "MvccVersion") -> None:
        # only the (single) writer thread appends; list.append is atomic
        self._pending.append((store, version))
        METRICS.inc("mvcc.versions_created")

    def drop_pending(self) -> None:
        """Forget the open scope's uncommitted versions (an explicit
        transaction's abort): its inserts vanish, its deletes are undone."""
        with self._latch:
            for store, version in self._pending:
                if version.begin is None:
                    store.discard(version.tid)
                elif version.end is None:
                    version.end, version.end_txn = float("inf"), 0
            self._pending.clear()

    def end_scope(self, wal_lsn: Optional[int] = None) -> Optional[float]:
        """Leave a write scope.  At depth 0 the scope *commits*: every
        pending version is stamped with the next commit sequence number and
        becomes visible to snapshots acquired from now on.  (An aborted
        transaction has dropped its pending versions first, so it stamps
        nothing.)  Returns the commit sequence number at depth 0, else
        ``None``."""
        with self._latch:
            self._scope_depth -= 1
            if self._scope_depth > 0:
                return None
            lsn = self.committed_lsn + 1.0
            seen: set[int] = set()
            stamped = False
            for store, version in self._pending:
                if id(version) in seen:
                    continue
                seen.add(id(version))
                if version.begin is None:
                    version.begin = lsn
                version.begin_txn = 0
                if version.end is None:
                    version.end = lsn
                version.end_txn = 0
                if version.end != float("inf"):
                    self._gc_queue.append((version.end, store, version.tid))
                stamped = True
            self._pending.clear()
            if stamped:
                self.committed_lsn = lsn
            if wal_lsn is not None:
                self.last_wal_lsn = wal_lsn
            if self._scope_snapshot is not None:
                self._scope_snapshot.txn = None
            self._scope_txn = None
            self._scope_snapshot = None
            if stamped:
                METRICS.inc("mvcc.commits")
                return lsn
            return None

    # -- garbage collection --------------------------------------------------

    def gc_backlog(self) -> int:
        with self._latch:
            return len(self._gc_queue)

    def pop_reclaimable(
        self, limit: Optional[int] = None
    ) -> tuple[list[tuple[float, "MvccStore", object]], float]:
        """Dequeue versions whose end LSN is at or below the watermark."""
        out: list[tuple[float, "MvccStore", object]] = []
        with self._latch:
            w = self._watermark_locked()
            while self._gc_queue and self._gc_queue[0][0] <= w:
                out.append(self._gc_queue.popleft())
                if limit is not None and len(out) >= limit:
                    break
        return out, w

    def restore_table(self, store: "MvccStore") -> None:
        """Take back a *store* an aborted table rewrite had forgotten: the
        versions the aborted scope wrote are undone, the closed ones queue
        for GC again."""
        with self._latch:
            queue = list(self._gc_queue)
            for version in store.versions():
                if version.begin is None:
                    store.discard(version.tid)
                elif version.end is None:
                    version.end, version.end_txn = float("inf"), 0
                elif version.end != float("inf"):
                    queue.append((version.end, store, version.tid))
            self._gc_queue = deque(sorted(queue, key=lambda item: item[0]))

    def forget_table(self, store: "MvccStore") -> None:
        """Drop all pending/GC bookkeeping for *store* (table rewrite/drop)."""
        with self._latch:
            self._pending = [(s, v) for s, v in self._pending if s is not store]
            self._gc_queue = deque(
                item for item in self._gc_queue if item[1] is not store
            )
