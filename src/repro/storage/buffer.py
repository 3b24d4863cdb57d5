"""Buffer manager: a fixed pool of page frames with LRU replacement.

The buffer manager is the metering point for the reproduction's cost model:
``stats.logical_reads`` counts page requests (the paper's "pages touched")
and ``stats.physical_reads`` / ``physical_writes`` count backend I/O.
Benchmarks reset the counters, run an operation, and report the deltas.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.concurrency.locks import Latch
from repro.errors import BufferError_, TornPageError
from repro.obs import METRICS, WAITS
from repro.storage.constants import PAGE_SIZE
from repro.storage.page import (
    Page,
    checksum_ok,
    clear_checksum,
    set_page_lsn,
    stamp_checksum,
)
from repro.storage.pagedfile import PagedFile


@dataclass
class BufferStats:
    logical_reads: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    evictions: int = 0
    #: distinct pages touched since the last reset (the clustering metric)
    pages_touched: set = field(default_factory=set)

    def reset(self) -> None:
        self.logical_reads = 0
        self.physical_reads = 0
        self.physical_writes = 0
        self.evictions = 0
        self.pages_touched = set()

    @property
    def hits(self) -> int:
        """Page requests served from the pool (no backend read)."""
        return self.logical_reads - self.physical_reads

    @property
    def hit_ratio(self) -> Optional[float]:
        """Fraction of page requests served from the pool, or ``None``
        before any request was made."""
        if self.logical_reads == 0:
            return None
        return self.hits / self.logical_reads

    def snapshot(self) -> dict:
        ratio = self.hit_ratio
        return {
            "logical_reads": self.logical_reads,
            "physical_reads": self.physical_reads,
            "physical_writes": self.physical_writes,
            "evictions": self.evictions,
            "distinct_pages": len(self.pages_touched),
            "hit_ratio": round(ratio, 4) if ratio is not None else None,
        }

    def delta(self, before: dict) -> dict:
        """Counter movement since a previous :meth:`snapshot`.

        ``hit_ratio`` is recomputed *for the window* (hits during the
        window over logical reads during the window); ``distinct_pages``
        is the growth of the cumulative distinct-page set.
        """
        current = self.snapshot()
        out = {
            key: current[key] - before.get(key, 0)
            for key in (
                "logical_reads",
                "physical_reads",
                "physical_writes",
                "evictions",
                "distinct_pages",
            )
        }
        logical = out["logical_reads"]
        hits = logical - out["physical_reads"]
        out["hit_ratio"] = round(hits / logical, 4) if logical else None
        return out


class _Frame:
    __slots__ = ("page_no", "buffer", "pin_count", "dirty")

    def __init__(self, page_no: int, buffer: bytearray):
        self.page_no = page_no
        self.buffer = buffer
        self.pin_count = 0
        self.dirty = False


class BufferManager:
    """LRU buffer pool over a :class:`~repro.storage.pagedfile.PagedFile`.

    When a :class:`~repro.wal.manager.WalManager` is attached the pool
    enforces the durability rules: **WAL-before-data** (the log is fsynced
    before any page write) and **no-steal** (pages with unlogged changes
    are never written or evicted — redo-only recovery needs no undo).
    With ``checksums=True`` every page written to the backend is stamped
    with a CRC32 and every page read back is verified, turning torn writes
    into :class:`~repro.errors.TornPageError` instead of silent corruption.
    """

    def __init__(
        self,
        file: PagedFile,
        capacity: int = 256,
        wal=None,
        checksums: bool = False,
    ):
        if capacity < 1:
            raise BufferError_("buffer capacity must be positive")
        self._file = file
        self._capacity = capacity
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        #: guards the frame map, pin counts, and eviction against
        #: concurrent sessions; never held while calling into the WAL
        #: except for the leaf-level ``ensure_durable``/``note_dirty``
        #: (whose own latch takes nothing else — no lock-order cycles)
        self._latch = Latch("buffer")
        self.stats = BufferStats()
        #: attached WAL manager (None = no durability enforcement)
        self.wal = wal
        #: stamp-on-write / verify-on-read page checksums
        self.checksums = checksums
        #: the open transaction's page before-images: page -> ``(bytes,
        #: dirty, protected)`` at its first write, None if new to the file
        self.before_images: Optional[dict] = None

    @property
    def capacity(self) -> int:
        """Frames in the pool."""
        return self._capacity

    # -- page access -----------------------------------------------------------

    def fetch(self, page_no: int, write: bool = False) -> Page:
        """Pin a page and return a :class:`Page` view onto its frame;
        *write* declares a change, so an open transaction keeps its bytes."""
        with self._latch:
            self.stats.logical_reads += 1
            self.stats.pages_touched.add(page_no)
            frame = self._frames.get(page_no)
            if frame is None:
                self._make_room()
                buffer = self._file.read_page(page_no)
                if self.checksums and not checksum_ok(buffer):
                    if METRICS.enabled:
                        METRICS.inc("buffer.torn_pages_detected")
                    raise TornPageError(
                        f"page {page_no} failed its checksum: torn write or "
                        "corruption (reopen the database to repair from the WAL)"
                    )
                self.stats.physical_reads += 1
                frame = _Frame(page_no, buffer)
                self._frames[page_no] = frame
                if METRICS.enabled:
                    METRICS.inc("buffer.logical_reads")
                    METRICS.inc("buffer.misses")
            else:
                self._frames.move_to_end(page_no)
                if METRICS.enabled:
                    METRICS.inc("buffer.logical_reads")
                    METRICS.inc("buffer.hits")
            frame.pin_count += 1
            images = self.before_images
            if write and images is not None and page_no not in images:
                images[page_no] = (
                    bytes(frame.buffer),
                    frame.dirty,
                    self.wal is not None and page_no in self.wal.protected_pages,
                )
            return Page(frame.buffer)

    def unpin(self, page_no: int, dirty: bool = False) -> None:
        with self._latch:
            frame = self._frames.get(page_no)
            if frame is None or frame.pin_count == 0:
                raise BufferError_(f"page {page_no} is not pinned")
            frame.pin_count -= 1
            frame.dirty = frame.dirty or dirty
        if dirty and self.wal is not None:
            self.wal.note_dirty(page_no)

    @contextmanager
    def page(self, page_no: int, dirty: bool = False) -> Iterator[Page]:
        """``with buffer.page(n) as page: ...`` — fetch/unpin pairing.

        The dirty flag describes the caller's *intent*; if the body raises
        before actually changing the page, honouring it blindly would mark
        a never-written frame dirty — and with a WAL attached,
        ``note_dirty`` would pin that page into the protected (no-steal)
        set until the next commit logs an image of a page that never
        changed.  On the exception path the page content is therefore
        compared (CRC32 of the frame bytes) against its state on entry and
        the frame is only dirtied when a mutation really happened."""
        page = self.fetch(page_no, write=dirty)
        before = zlib.crc32(page.buffer) if dirty else None
        try:
            yield page
        except BaseException:
            changed = dirty and zlib.crc32(page.buffer) != before
            self.unpin(page_no, dirty=changed)
            raise
        else:
            self.unpin(page_no, dirty=dirty)

    def new_page(self) -> tuple[int, Page]:
        """Allocate, format, and pin a fresh page."""
        with self._latch:
            page_no = self._file.allocate_page()
            self._make_room()
            buffer = bytearray(PAGE_SIZE)
            frame = _Frame(page_no, buffer)
            frame.dirty = True
            self._frames[page_no] = frame
            frame.pin_count += 1
            self.stats.logical_reads += 1
            self.stats.pages_touched.add(page_no)
            if METRICS.enabled:
                METRICS.inc("buffer.logical_reads")
                METRICS.inc("buffer.pages_allocated")
            page = Page.format(frame.buffer)
            if self.before_images is not None:
                self.before_images[page_no] = None
        if self.wal is not None:
            self.wal.note_dirty(page_no)
        return page_no, page

    # -- maintenance -------------------------------------------------------------

    def flush_page(self, page_no: int) -> None:
        with self._latch:
            frame = self._frames.get(page_no)
            if frame is not None and frame.dirty:
                if self.wal is not None and page_no in self.wal.protected_pages:
                    raise BufferError_(
                        f"WAL-before-data violation: page {page_no} has "
                        "unlogged changes (commit or checkpoint first)"
                    )
                self._write_frame(frame)
                frame.dirty = False

    def _write_frame(self, frame: _Frame) -> None:
        """Write one frame to the backend honouring WAL-before-data and
        stamping (or clearing) the torn-write checksum."""
        if self.wal is not None:
            self.wal.ensure_durable()
        if self.checksums:
            stamp_checksum(frame.buffer)
        else:
            clear_checksum(frame.buffer)
        self._file.write_page(frame.page_no, bytes(frame.buffer))
        self.stats.physical_writes += 1
        METRICS.inc("buffer.physical_writes")

    def image_for_log(self, page_no: int, lsn: int) -> bytes:
        """The WAL's page-image hook: stamp *lsn* into the cached frame's
        header and return the page bytes to log.  Dirty pages are always
        cached (no-steal), but a clean page may have been evicted — then
        the backend's copy is already the current image."""
        with self._latch:
            frame = self._frames.get(page_no)
            if frame is None:
                return bytes(self._file.read_page(page_no))
            set_page_lsn(frame.buffer, lsn)
            return bytes(frame.buffer)

    def restore(self, images: dict) -> list[int]:
        """Put back a transaction's page before-images; returns the pages
        whose unlogged changes were all its own.  New pages are forgotten."""
        clean = []
        with self._latch:
            for page_no, image in images.items():
                if image is None:
                    self._frames.pop(page_no, None)
                    clean.append(page_no)
                    continue
                data, dirty, protected = image
                frame = self._frames.get(page_no)
                if frame is None:  # evicted (no WAL): the file has its bytes
                    self._write_frame(_Frame(page_no, bytearray(data)))
                else:
                    frame.buffer[:] = data
                    frame.dirty = dirty or self.wal is None
                if not protected:
                    clean.append(page_no)
        return clean

    def flush_all(self) -> None:
        for page_no in list(self._frames):
            self.flush_page(page_no)
        self._file.sync()

    def drop(self, page_no: int) -> None:
        """Forget a cached page without writing it (used when freeing
        pages)."""
        with self._latch:
            frame = self._frames.get(page_no)
            if frame is not None and frame.pin_count:
                raise BufferError_(f"cannot drop pinned page {page_no}")
            self._frames.pop(page_no, None)

    def invalidate(self, page_no: int) -> None:
        """Discard the cached copy of one page after its backend bytes
        were rewritten underneath the pool (replica apply redoes shipped
        page images straight into the file).  An unpinned frame is simply
        dropped; a pinned frame — the caller is expected to have excluded
        readers, but stay safe — is refreshed in place so existing
        :class:`~repro.storage.page.Page` views see the new bytes."""
        with self._latch:
            frame = self._frames.get(page_no)
            if frame is None:
                return
            if frame.pin_count == 0:
                self._frames.pop(page_no, None)
            else:  # pragma: no cover - apply holds X locks; defensive
                frame.buffer[:] = self._file.read_page(page_no)
                frame.dirty = False

    def invalidate_cache(self) -> None:
        """Empty the pool (flushing dirty frames) — lets benchmarks measure
        cold-cache physical I/O."""
        self.flush_all()
        with self._latch:
            for frame in self._frames.values():
                if frame.pin_count:
                    raise BufferError_("cannot invalidate with pinned pages")
            self._frames.clear()

    @property
    def pinned_pages(self) -> list[int]:
        with self._latch:
            return [n for n, f in self._frames.items() if f.pin_count > 0]

    # -- internal -------------------------------------------------------------------

    def _make_room(self) -> None:
        while len(self._frames) >= self._capacity:
            protected = (
                self.wal.protected_pages if self.wal is not None else ()
            )
            victim = None
            for page_no, frame in self._frames.items():
                if frame.pin_count == 0:
                    # no-steal: a dirty page whose changes are not yet in
                    # the log must stay cached until its commit logs it
                    if frame.dirty and page_no in protected:
                        continue
                    victim = page_no
                    break
            if victim is None:
                raise BufferError_(
                    "buffer pool exhausted: every frame pinned or "
                    "protected by an uncommitted transaction"
                )
            frame = self._frames.pop(victim)
            if frame.dirty:
                # making room by flushing someone else's dirty page is a
                # classic hidden stall — attribute it
                with WAITS.wait("Buffer/DirtyEvict", page=victim):
                    self._write_frame(frame)
            self.stats.evictions += 1
            METRICS.inc("buffer.evictions")
