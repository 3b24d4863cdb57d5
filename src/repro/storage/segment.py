"""Database segments: page allocation domains with record-level access.

A segment owns a set of pages of the shared paged file and provides
TID-addressed record operations with *stable TIDs*: an update that outgrows
its page leaves a ``FORWARD`` stub at the record's home slot and stores the
body as a ``REMOTE`` record elsewhere, so every TID ever handed out stays
valid (the property the paper needs for root-MD TIDs in indexes).

The segment also keeps an approximate free-space map so inserts can honour
*preferred pages* — the hook the complex-object manager uses to implement
the paper's clustering rule ("new data are usually stored in pages which
already contain data of this complex object").
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import PageFullError, RecordNotFoundError, SegmentError
from repro.storage.buffer import BufferManager
from repro.storage.constants import (
    CHAIN_CHUNK,
    CHAIN_PART_HEADER,
    FLAG_CHAIN,
    FLAG_CHAIN_PART,
    FLAG_FORWARD,
    FLAG_NORMAL,
    FLAG_REMOTE,
    MAX_RECORD_SIZE,
    PAGE_SIZE,
)
from repro.storage.tid import TID

#: "no next part" marker in chain-part headers
_NIL_TID = TID(0xFFFFFFFF, 0xFFFF)


class Segment:
    """A page-allocation domain over a shared buffer manager."""

    def __init__(self, buffer: BufferManager, name: str = "segment"):
        self._buffer = buffer
        self.name = name
        #: pages owned by this segment, in allocation order
        self._pages: list[int] = []
        self._free_pages: list[int] = []
        #: page -> approximate free bytes
        self._free_map: dict[int, int] = {}
        #: page-list changes since the last logged commit, in order:
        #: ``["a", page]`` (allocated: the last free page, else a new
        #: one) and ``["f", page]`` (freed).  None: not journaled.
        self.journal: Optional[list] = None

    # -- page management -------------------------------------------------------

    @property
    def buffer(self) -> BufferManager:
        return self._buffer

    @property
    def pages(self) -> tuple[int, ...]:
        return tuple(self._pages)

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def allocate_page(self) -> int:
        """Take a fresh (or recycled) formatted page into this segment."""
        if self._free_pages:
            page_no = self._free_pages.pop()
            page = self._buffer.fetch(page_no, write=True)
            try:
                page.format(page.buffer)
            finally:
                self._buffer.unpin(page_no, dirty=True)
        else:
            page_no, _page = self._buffer.new_page()
            self._buffer.unpin(page_no, dirty=True)
        self._pages.append(page_no)
        self._free_map[page_no] = _usable_space(self._buffer, page_no)
        if self.journal is not None:
            self.journal.append(["a", page_no])
        return page_no

    def free_page(self, page_no: int) -> None:
        """Return a page to the segment's free pool."""
        if page_no not in self._free_map:
            raise SegmentError(f"page {page_no} is not owned by segment {self.name}")
        self._pages.remove(page_no)
        del self._free_map[page_no]
        self._free_pages.append(page_no)
        if self.journal is not None:
            self.journal.append(["f", page_no])

    def owns(self, page_no: int) -> bool:
        return page_no in self._free_map

    # -- record operations --------------------------------------------------------

    def insert_record(
        self,
        payload: bytes,
        preferred_pages: Optional[Sequence[int]] = None,
        flag: int = FLAG_NORMAL,
    ) -> TID:
        """Insert a record, trying *preferred_pages* first (clustering).

        Records larger than one page are chained across pages
        transparently; their TID addresses the chain head.
        """
        if len(payload) + 1 > MAX_RECORD_SIZE:
            return self._insert_chained(payload, preferred_pages)
        needed = len(payload) + 5  # flag + slot entry, conservative
        candidates: list[int] = []
        if preferred_pages:
            candidates.extend(
                p for p in preferred_pages
                if p is not None and self._free_map.get(p, 0) >= needed
            )
        if not candidates:
            candidates.extend(
                p for p in reversed(self._pages) if self._free_map.get(p, 0) >= needed
            )
        for page_no in candidates:
            try:
                return self._insert_on(page_no, payload, flag)
            except PageFullError:
                # The estimate was stale; refresh it and move on.
                self._free_map[page_no] = _usable_space(self._buffer, page_no)
                continue
        page_no = self.allocate_page()
        return self._insert_on(page_no, payload, flag)

    def insert_record_on(self, page_no: int, payload: bytes, flag: int = FLAG_NORMAL) -> TID:
        """Insert on a specific page or raise :class:`PageFullError`."""
        if not self.owns(page_no):
            raise SegmentError(f"page {page_no} is not owned by segment {self.name}")
        return self._insert_on(page_no, payload, flag)

    def _insert_on(self, page_no: int, payload: bytes, flag: int) -> TID:
        page = self._buffer.fetch(page_no, write=True)
        try:
            slot = page.insert(payload, flag)
            self._free_map[page_no] = page.free_space
        finally:
            self._buffer.unpin(page_no, dirty=True)
        return TID(page_no, slot)

    # -- multi-page (chained) records ---------------------------------------------

    def _build_chain_parts(
        self, payload: bytes, preferred_pages: Optional[Sequence[int]]
    ) -> bytes:
        """Write an oversized payload's chain parts; returns the head
        payload (total length + first part's TID) for the caller to
        place."""
        import struct

        chunks = [
            payload[i:i + CHAIN_CHUNK] for i in range(0, len(payload), CHAIN_CHUNK)
        ]
        next_tid = _NIL_TID
        # write parts back-to-front so each knows its successor
        for chunk in reversed(chunks):
            part = next_tid.encode() + chunk
            next_tid = self.insert_record(
                part, preferred_pages=preferred_pages, flag=FLAG_CHAIN_PART
            )
        return struct.pack(">I", len(payload)) + next_tid.encode()

    def _insert_chained(
        self, payload: bytes, preferred_pages: Optional[Sequence[int]]
    ) -> TID:
        head = self._build_chain_parts(payload, preferred_pages)
        return self.insert_record(head, preferred_pages=preferred_pages, flag=FLAG_CHAIN)

    def _store_body(
        self, payload: bytes, preferred_pages: Optional[Sequence[int]]
    ) -> TID:
        """Store an out-of-home record body: REMOTE if it fits a page,
        else a chain head."""
        if len(payload) + 1 > MAX_RECORD_SIZE:
            head = self._build_chain_parts(payload, preferred_pages)
            return self.insert_record(
                head, preferred_pages=preferred_pages, flag=FLAG_CHAIN
            )
        return self.insert_record(
            payload, preferred_pages=preferred_pages, flag=FLAG_REMOTE
        )

    def _read_chain(self, head_payload: bytes) -> bytes:
        import struct

        total = struct.unpack_from(">I", head_payload, 0)[0]
        current = TID.decode(head_payload, 4)
        out = bytearray()
        while current != _NIL_TID:
            flag, part = self._read_raw(current)
            if flag != FLAG_CHAIN_PART:
                raise RecordNotFoundError("broken record chain")
            current = TID.decode(part, 0)
            out += part[CHAIN_PART_HEADER:]
        if len(out) != total:
            raise RecordNotFoundError("record chain length mismatch")
        return bytes(out)

    def _delete_chain(self, head_payload: bytes) -> None:
        current = TID.decode(head_payload, 4)
        while current != _NIL_TID:
            flag, part = self._read_raw(current)
            next_tid = TID.decode(part, 0)
            self._delete_raw(current)
            current = next_tid

    def read_record(self, tid: TID) -> bytes:
        """Read a record, transparently following forward stubs and
        reassembling multi-page chains."""
        flag, payload = self._read_raw(tid)
        if flag == FLAG_FORWARD:
            target = TID.decode(payload)
            flag, payload = self._read_raw(target)
            if flag not in (FLAG_REMOTE, FLAG_CHAIN):
                raise RecordNotFoundError(f"broken forward chain at {tid}")
        if flag == FLAG_CHAIN:
            return self._read_chain(payload)
        return payload

    def decode_records(self, tids: Sequence[TID], decode: Callable) -> list:
        """``decode(buffer, start, end)`` of every record of *tids*, in
        order, reading each run of TIDs on the same page under one pin.

        Plain records are decoded straight from the frame; forward stubs
        and chain heads are resolved by :meth:`read_record` after the last
        page is unpinned, so the scan never holds two pins."""
        out: list = []
        detours: list[tuple[int, TID]] = []
        buffer = self._buffer
        pinned = None
        try:
            for tid in tids:
                page_no, slot = tid
                if page_no != pinned:
                    if pinned is not None:
                        buffer.unpin(pinned)
                        pinned = None
                    page = buffer.fetch(page_no)
                    pinned = page_no
                    frame = page.buffer
                    span = page.span
                flag, start, end = span(slot)
                if flag == FLAG_NORMAL:
                    out.append(decode(frame, start, end))
                else:
                    detours.append((len(out), tid))
                    out.append(None)
        finally:
            if pinned is not None:
                buffer.unpin(pinned)
        for index, tid in detours:
            payload = self.read_record(tid)
            out[index] = decode(payload, 0, len(payload))
        return out

    def _read_raw(self, tid: TID) -> tuple[int, bytes]:
        page = self._buffer.fetch(tid.page)
        try:
            return page.read(tid.slot)
        finally:
            self._buffer.unpin(tid.page)

    def update_record(
        self,
        tid: TID,
        payload: bytes,
        preferred_pages: Optional[Sequence[int]] = None,
    ) -> None:
        """Update a record in place; the TID stays valid forever.

        If the new payload no longer fits its home page, the body moves to
        another page as a ``REMOTE`` record (*preferred_pages* first) and
        the home slot becomes a ``FORWARD`` stub (an existing stub is
        retargeted, so chains never grow beyond one hop).
        """
        flag, home_payload = self._read_raw(tid)
        fits_page = len(payload) + 1 <= MAX_RECORD_SIZE
        if flag == FLAG_FORWARD:
            remote = TID.decode(home_payload)
            remote_flag, remote_payload = self._read_raw(remote)
            if remote_flag == FLAG_CHAIN:
                self._delete_chain(remote_payload)
                self._delete_raw(remote)
            else:
                if fits_page:
                    try:
                        self._update_in_place(remote, payload, FLAG_REMOTE)
                        return
                    except PageFullError:
                        pass
                self._delete_raw(remote)
            new_remote = self._store_body(payload, preferred_pages)
            self._update_in_place(tid, new_remote.encode(), FLAG_FORWARD)
            return
        if flag == FLAG_CHAIN:
            self._delete_chain(home_payload)
            if not fits_page:
                head = self._build_chain_parts(payload, preferred_pages)
                self._update_in_place(tid, head, FLAG_CHAIN)
                return
            try:
                self._update_in_place(tid, payload, FLAG_NORMAL)
                return
            except PageFullError:
                remote = self._store_body(payload, preferred_pages)
                self._update_in_place(tid, remote.encode(), FLAG_FORWARD)
                return
        if fits_page:
            try:
                self._update_in_place(tid, payload, flag)
                return
            except PageFullError:
                remote = self._store_body(payload, preferred_pages)
                self._update_in_place(tid, remote.encode(), FLAG_FORWARD)
                return
        # Oversized: chain the body, head in place if possible.
        head = self._build_chain_parts(payload, preferred_pages)
        try:
            self._update_in_place(tid, head, FLAG_CHAIN)
        except PageFullError:
            head_tid = self.insert_record(
                head, preferred_pages=preferred_pages, flag=FLAG_CHAIN
            )
            self._update_in_place(tid, head_tid.encode(), FLAG_FORWARD)

    def _update_in_place(self, tid: TID, payload: bytes, flag: int) -> None:
        page = self._buffer.fetch(tid.page, write=True)
        try:
            page.update(tid.slot, payload, flag)
            self._free_map[tid.page] = page.free_space
        finally:
            self._buffer.unpin(tid.page, dirty=True)

    def delete_record(self, tid: TID) -> None:
        flag, payload = self._read_raw(tid)
        if flag == FLAG_FORWARD:
            remote = TID.decode(payload)
            remote_flag, remote_payload = self._read_raw(remote)
            if remote_flag == FLAG_CHAIN:
                self._delete_chain(remote_payload)
            self._delete_raw(remote)
        elif flag == FLAG_CHAIN:
            self._delete_chain(payload)
        self._delete_raw(tid)

    def _delete_raw(self, tid: TID) -> None:
        page = self._buffer.fetch(tid.page, write=True)
        try:
            page.delete(tid.slot)
            self._free_map[tid.page] = page.free_space
        finally:
            self._buffer.unpin(tid.page, dirty=True)

    # -- scans ------------------------------------------------------------------------

    def scan(self, pages: Optional[Iterable[int]] = None) -> Iterator[tuple[TID, bytes]]:
        """Yield (home TID, payload) for every live record.

        ``REMOTE`` records are skipped (their home stub yields them), so
        records are produced exactly once under stable home TIDs.
        """
        for page_no in (self._pages if pages is None else pages):
            page = self._buffer.fetch(page_no)
            try:
                entries = list(page.slots())
            finally:
                self._buffer.unpin(page_no)
            for slot, flag, payload in entries:
                if flag in (FLAG_REMOTE, FLAG_CHAIN_PART):
                    continue
                if flag in (FLAG_FORWARD, FLAG_CHAIN):
                    yield TID(page_no, slot), self.read_record(TID(page_no, slot))
                else:
                    yield TID(page_no, slot), payload

    def free_space_on(self, page_no: int) -> int:
        return self._free_map.get(page_no, 0)

    def usage(self) -> tuple[int, float]:
        """Bytes occupied on this segment's pages, and their share of the
        pages' capacity (0.0 for a segment without pages)."""
        used = sum(PAGE_SIZE - self.free_space_on(p) for p in self._pages)
        capacity = len(self._pages) * PAGE_SIZE
        return used, round(used / capacity, 3) if capacity else 0.0

    # -- persistence helpers ------------------------------------------------------------

    def state(self) -> dict:
        return {
            "name": self.name,
            "pages": list(self._pages),
            "free_pages": list(self._free_pages),
        }

    @classmethod
    def restore(cls, buffer: BufferManager, state: dict) -> "Segment":
        segment = cls(buffer, state["name"])
        segment._pages = list(state["pages"])
        segment._free_pages = list(state["free_pages"])
        for page_no in segment._pages:
            segment._free_map[page_no] = _usable_space(buffer, page_no)
        return segment

    def mark(self) -> tuple:
        """What :meth:`rewind` puts back: page lists, free map, journal."""
        journal = None if self.journal is None else len(self.journal)
        return list(self._pages), list(self._free_pages), dict(self._free_map), journal

    def rewind(self, mark: tuple) -> None:
        self._pages, self._free_pages, self._free_map, journal = mark
        if journal is not None:
            del self.journal[journal:]  # type: ignore[index]


def _usable_space(buffer: BufferManager, page_no: int) -> int:
    page = buffer.fetch(page_no)
    try:
        return page.free_space
    finally:
        buffer.unpin(page_no)
