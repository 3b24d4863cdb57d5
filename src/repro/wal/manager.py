"""The write-ahead-log manager.

``WalManager`` owns the log file of one database and enforces the two
classic invariants on behalf of the engine:

* **WAL-before-data** — the buffer manager calls :meth:`ensure_durable`
  before any physical page write, which fsyncs unsynced log records first;
  pages dirtied by the *active* (not yet committed) transaction are
  reported through :attr:`protected_pages` and must not be written or
  evicted at all (a no-steal policy: redo-only recovery never needs undo
  on the data file).
* **log-then-commit** — :meth:`log_commit` appends the after-images of
  every page the transaction dirtied, stamps each frame's pageLSN, appends
  the ``COMMIT`` record carrying the transaction's catalog delta (see
  :mod:`repro.wal.delta`), and fsyncs; only after the fsync returns is
  the commit acknowledged.

Checkpoints truncate the log: after the caller has flushed all dirty pages
and synced the data file, :meth:`checkpoint` atomically replaces the log
with a single ``CHECKPOINT`` record holding the full catalog state — the
base every later COMMIT delta applies to.
``should_checkpoint`` drives the auto-checkpoint policy (log bytes since
the last checkpoint exceed a threshold).

The file I/O runs through a small :class:`WalIO` seam so that the fault
harness (:mod:`repro.wal.faults`) can interpose staged writes, torn tails,
and injected crashes without touching the manager's logic.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Optional

from repro.errors import WalError
from repro.obs import METRICS, WAITS
from repro.wal.record import (
    REC_ABORT,
    REC_BEGIN,
    REC_CHECKPOINT,
    REC_COMMIT,
    REC_GC_WATERMARK,
    REC_PAGE_IMAGE,
    encode_catalog,
    encode_gc_watermark,
    encode_page_image,
    encode_record,
)


class WalIO:
    """Append-only log file with explicit fsync and atomic truncation."""

    def __init__(self, path: str):
        self.path = path
        if not os.path.exists(path):
            with open(path, "wb"):
                pass
        self._file = open(path, "r+b")
        self._file.seek(0, os.SEEK_END)
        self._size = self._file.tell()

    @property
    def size(self) -> int:
        return self._size

    def append(self, data: bytes) -> int:
        """Append *data*; returns the offset it was written at."""
        offset = self._size
        self._file.seek(offset)
        self._file.write(data)
        self._size += len(data)
        return offset

    def fsync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def reset_with(self, data: bytes) -> None:
        """Atomically replace the log's contents with *data* (durably)."""
        temp = self.path + ".tmp"
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)
        self._file.close()
        self._file = open(self.path, "r+b")
        self._file.seek(0, os.SEEK_END)
        self._size = self._file.tell()

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()


class WalManager:
    """Transactional redo logging over one :class:`WalIO`."""

    def __init__(
        self,
        path: str,
        io: Optional[WalIO] = None,
        auto_checkpoint_bytes: int = 1 << 20,
    ):
        self.path = path
        self._io = io if io is not None else WalIO(path)
        #: serializes log appends against fsyncs — commit scopes are
        #: already serialized by the engine's write latch, but a *reader*
        #: thread evicting a dirty page calls :meth:`ensure_durable`
        #: concurrently with a writer appending records
        self._latch = threading.RLock()
        self.auto_checkpoint_bytes = auto_checkpoint_bytes
        self._prev_lsn = 0
        self._txn: Optional[int] = None
        self._next_txn = 1
        #: byte LSN of the latest COMMIT record (observability; resets on
        #: checkpoint truncation, so MVCC stamps versions with its own
        #: commit sequence instead)
        self.last_commit_lsn: Optional[int] = None
        #: pages dirtied since the last commit/checkpoint — not yet covered
        #: by a durable log record, so the buffer must not write them out
        self._dirty: set[int] = set()
        self._pending_sync = False
        self._bytes_since_checkpoint = self._io.size
        #: first unrecoverable failure of the commit path (a crashed or
        #: failing log device).  Once set, the manager is *poisoned*:
        #: every further WAL operation re-raises it, so no mutation can
        #: slip past a log that stopped recording — exactly like a real
        #: engine panicking when it cannot write its log.
        self.failure: Optional[BaseException] = None
        #: log-shipping subscribers: callables ``(pages, catalog_delta)``
        #: invoked after every durable commit with the committed page
        #: after-images ``[(page_no, image), ...]`` and the catalog delta
        #: the COMMIT record carries.  The replication hub registers here
        #: (see :mod:`repro.replication`).
        self.shippers: list[Callable[[list, Any], None]] = []
        #: cumulative counters (mirrored into METRICS when enabled)
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0
        self.commits = 0
        self.aborts = 0
        self.checkpoints = 0
        #: shipper calls that raised (the commit stands regardless)
        self.ship_errors = 0

    # -- transaction lifecycle ------------------------------------------------

    @property
    def in_txn(self) -> bool:
        return self._txn is not None

    @property
    def protected_pages(self) -> set[int]:
        """Pages with unlogged changes — the buffer's no-steal set."""
        return self._dirty

    def poison(self, exc: BaseException) -> None:
        """Mark the WAL as failed; keeps the *first* failure."""
        if self.failure is None:
            self.failure = exc

    def _check_alive(self) -> None:
        if self.failure is not None:
            raise self.failure

    def begin(self) -> int:
        self._check_alive()
        if self._txn is not None:
            raise WalError("a WAL transaction is already active")
        self._txn = self._next_txn
        self._next_txn += 1
        self._append(REC_BEGIN, self._txn, b"")
        return self._txn

    def note_dirty(self, page_no: int) -> None:
        """Record that *page_no* was dirtied (called from the buffer)."""
        with self._latch:
            self._dirty.add(page_no)

    def log_commit(
        self,
        catalog_delta: Any,
        get_image: Callable[[int, int], bytes],
    ) -> bool:
        """Make the active transaction durable.

        *catalog_delta* is what the transaction changed in the catalog
        since the last COMMIT or CHECKPOINT (the engine passes
        ``Catalog.take_delta``'s result).  *get_image(page_no, lsn)* must
        stamp *lsn* into the page's header and return the page's current
        bytes.  Returns True when the caller should run an auto-checkpoint
        (log grew past the threshold).
        """
        self._check_alive()
        if self._txn is None:
            raise WalError("log_commit outside a WAL transaction")
        txn = self._txn
        shipped: Optional[list] = [] if self.shippers else None
        for page_no in sorted(self._dirty):
            lsn = self._io.size
            image = get_image(page_no, lsn)
            self._append(REC_PAGE_IMAGE, txn, encode_page_image(page_no, image))
            if shipped is not None:
                shipped.append((page_no, image))
        self.last_commit_lsn = self._append(
            REC_COMMIT, txn, encode_catalog(catalog_delta)
        )
        self.flush()
        self._dirty.clear()
        self._txn = None
        self.commits += 1
        if METRICS.enabled:
            METRICS.inc("wal.commits")
        if shipped is not None:
            # ship the committed batch only after the fsync above: a
            # replica must never apply state the primary could lose.  A
            # failing subscriber must not fail the commit: the failure is
            # counted and the commit stands (a replica that missed the
            # batch sees the sequence gap and re-attaches)
            for shipper in list(self.shippers):
                try:
                    shipper(shipped, catalog_delta)
                except Exception:  # noqa: BLE001 — counted in ship_errors
                    self.ship_errors += 1
                    if METRICS.enabled:
                        METRICS.inc("wal.ship_errors")
        return self._bytes_since_checkpoint >= self.auto_checkpoint_bytes

    def abort(self, restored=()) -> None:
        """Append ABORT and end the active transaction.  *restored* pages
        are back at their logged state and need no image.  No fsync: a
        transaction without COMMIT is a loser to recovery either way."""
        self._check_alive()
        if self._txn is None:
            raise WalError("abort outside a WAL transaction")
        self._append(REC_ABORT, self._txn, b"")
        with self._latch:
            self._dirty.difference_update(restored)
        self._txn = None
        self.aborts += 1
        if METRICS.enabled:
            METRICS.inc("wal.aborts")

    def convert_abort(self) -> int:
        """Abort the active transaction and open a successor that inherits
        its dirty pages: a failed autocommit operation re-commits what
        memory kept under it.  A crash before that commit makes the
        successor a loser too — the disk keeps the pre-transaction state
        (no-steal kept these pages unflushed)."""
        self.abort()
        return self.begin()

    def log_gc_watermark(self, watermark: float) -> int:
        """Record how far MVCC version GC has advanced (informational —
        redo skips it, recovery merely reports the last one seen)."""
        self._check_alive()
        return self._append(REC_GC_WATERMARK, 0, encode_gc_watermark(watermark))

    # -- durability ------------------------------------------------------------

    def flush(self) -> None:
        """fsync appended records (no-op when everything is durable)."""
        self._check_alive()
        with self._latch:
            if not self._pending_sync:
                return
            with WAITS.wait("WAL/Fsync"):
                self._io.fsync()
            self._pending_sync = False
            self.fsyncs += 1
        if METRICS.enabled:
            METRICS.inc("wal.fsyncs")

    def ensure_durable(self) -> None:
        """The WAL-before-data hook: called by the buffer manager right
        before it writes any page to the data file."""
        self.flush()

    # -- checkpointing -----------------------------------------------------------

    def should_checkpoint(self) -> bool:
        return self._bytes_since_checkpoint >= self.auto_checkpoint_bytes

    def checkpoint(self, catalog_state: Any) -> None:
        """Truncate the log to a single CHECKPOINT record.

        The caller must already have flushed every dirty page and synced
        the data file — after that, the old log is redundant: replaying it
        would only rewrite pages with the bytes they already hold.
        """
        self._check_alive()
        if self._txn is not None:
            raise WalError("cannot checkpoint inside a transaction")
        payload = encode_catalog(catalog_state)
        record = encode_record(0, 0, REC_CHECKPOINT, 0, payload)
        with self._latch:
            with WAITS.wait("WAL/Checkpoint"):
                self._io.reset_with(record)
            self._prev_lsn = 0
            self._dirty.clear()
            self._pending_sync = False
            self._bytes_since_checkpoint = 0
        self.checkpoints += 1
        self.records_appended += 1
        self.bytes_appended += len(record)
        if METRICS.enabled:
            METRICS.inc("wal.checkpoints")
            METRICS.inc("wal.records_appended")
            METRICS.inc("wal.bytes_appended", len(record))

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "path": self.path,
            "size_bytes": self._io.size,
            "bytes_since_checkpoint": self._bytes_since_checkpoint,
            "auto_checkpoint_bytes": self.auto_checkpoint_bytes,
            "records_appended": self.records_appended,
            "bytes_appended": self.bytes_appended,
            "fsyncs": self.fsyncs,
            "commits": self.commits,
            "aborts": self.aborts,
            "checkpoints": self.checkpoints,
            "ship_errors": self.ship_errors,
            "in_txn": self.in_txn,
            "unlogged_dirty_pages": len(self._dirty),
        }

    def close(self) -> None:
        self._io.close()

    # -- internal ----------------------------------------------------------------

    def _append(self, rtype: int, txn: int, payload: bytes) -> int:
        with self._latch:
            lsn = self._io.size
            data = encode_record(lsn, self._prev_lsn, rtype, txn, payload)
            self._io.append(data)
            self._prev_lsn = lsn
            self._pending_sync = True
            self._bytes_since_checkpoint += len(data)
        self.records_appended += 1
        self.bytes_appended += len(data)
        if METRICS.enabled:
            METRICS.inc("wal.records_appended")
            METRICS.inc("wal.bytes_appended", len(data))
        return lsn
