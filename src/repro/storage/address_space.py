"""A complex object's local address space.

Section 4.1 of the paper: every complex object owns a *page list* (stored in
its root MD subtuple) naming the pages that hold its subtuples.  Intra-object
pointers ("D" and "C") are Mini TIDs whose page component indexes this list,
so

* new subtuples cluster on pages the object already owns;
* removing a page leaves a ``None`` gap (existing Mini TIDs stay valid);
* adding a page reuses a gap or appends (other entries never move);
* relocating / checking out the whole object only rewrites the page list.

The address space keeps the paper's *separation of structural information
and data* down to the page level: MD subtuples live on MD pages and data
subtuples on data pages (the role is encoded in the page-list entry), so
navigating a complex object touches no data page at all.

Updates keep Mini TIDs stable via local forwarding: a record that outgrows
its page leaves an ``LFORWARD`` stub (payload: Mini TID of the relocated
body) at its home slot.

Reads of a whole object go a page at a time: inside :meth:`reading`, each
object page is pinned once and every subtuple on it is read from that
frame, so decoding an object costs one logical read per object page, not
one per subtuple.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from repro.errors import PageFullError, RecordNotFoundError, SegmentError, StorageError
from repro.obs import METRICS
from repro.storage.constants import (
    FLAG_LCHAIN,
    FLAG_LCHAIN_PART,
    FLAG_LFORWARD,
    FLAG_NORMAL,
    FLAG_REMOTE,
    MAX_RECORD_SIZE,
    MINI_TID_SIZE,
)
from repro.storage.segment import Segment
from repro.storage.tid import MiniTID, TID

#: "no next part" marker in local chains
_NIL_MINI = MiniTID(0xFFFF, 0xFFFF)

#: largest chunk stored per local chain part
_LOCAL_CHUNK = MAX_RECORD_SIZE - MINI_TID_SIZE - 64

#: page pools: data subtuples vs MD (structural) subtuples
DATA_POOL = False
MD_POOL = True

#: most pages one read scope keeps pinned; a pool of fewer than 64 frames
#: gives a scope an eighth of its frames, so concurrent scopes leave room
_SCOPE_PINS = 8


class LocalAddressSpace:
    """Clustered, Mini-TID-addressed record storage for one complex object."""

    def __init__(
        self,
        segment: Segment,
        page_list: Optional[list[Optional[int]]] = None,
        page_roles: Optional[Sequence[bool]] = None,
    ):
        self._segment = segment
        self.page_list: list[Optional[int]] = list(page_list or [])
        self.page_roles: list[bool] = (
            list(page_roles) if page_roles is not None
            else [DATA_POOL] * len(self.page_list)
        )
        if len(self.page_roles) != len(self.page_list):
            raise StorageError("page list and page roles must align")
        #: set when the page list changed (the root MD subtuple must be
        #: rewritten by the caller)
        self.page_list_dirty = False
        #: the open read scope's pinned pages (page number -> Page), or None
        self._pins: Optional[dict] = None

    # -- address translation ------------------------------------------------------

    def translate(self, mini: MiniTID) -> TID:
        """Local Mini TID -> segment-global TID via the page list."""
        if METRICS.enabled:
            METRICS.inc("storage.page_list_lookups")
        if mini.local_page >= len(self.page_list):
            raise StorageError(f"{mini} outside local address space")
        page = self.page_list[mini.local_page]
        if page is None:
            raise StorageError(f"{mini} points into a page-list gap")
        return TID(page, mini.slot)

    @property
    def pages(self) -> list[int]:
        """Live (non-gap) pages, in page-list order."""
        return [p for p in self.page_list if p is not None]

    def pages_of(self, pool: bool) -> list[int]:
        return [
            p
            for p, role in zip(self.page_list, self.page_roles)
            if p is not None and role == pool
        ]

    def _local_index(self, page_no: int, pool: bool = DATA_POOL) -> int:
        """Index of *page_no* in the page list, adding it if new.

        A gap is reused if available; otherwise the list grows at its end —
        the paper's stability rule verbatim.
        """
        for index, entry in enumerate(self.page_list):
            if entry == page_no:
                return index
        for index, entry in enumerate(self.page_list):
            if entry is None:
                self.page_list[index] = page_no
                self.page_roles[index] = pool
                self.page_list_dirty = True
                return index
        self.page_list.append(page_no)
        self.page_roles.append(pool)
        self.page_list_dirty = True
        return len(self.page_list) - 1

    def _pool_of(self, mini: MiniTID) -> bool:
        return self.page_roles[mini.local_page]

    # -- record operations -----------------------------------------------------------

    def insert(self, payload: bytes, flag: int = FLAG_NORMAL, pool: bool = DATA_POOL) -> MiniTID:
        """Insert a subtuple, clustering onto the object's own pages of the
        matching pool (data pages or MD pages).  Subtuples larger than a
        page — an MD subtuple of a subtable with thousands of entries —
        are chained transparently."""
        if len(payload) + 1 > MAX_RECORD_SIZE:
            head = self._build_chain_parts(payload, pool)
            return self.insert(head, flag=FLAG_LCHAIN, pool=pool)
        needed = len(payload) + 5
        for entry, role in zip(self.page_list, self.page_roles):
            if entry is None or role != pool:
                continue
            if self._segment.free_space_on(entry) >= needed:
                try:
                    tid = self._segment.insert_record_on(entry, payload, flag)
                    return MiniTID(self._local_index(tid.page, pool), tid.slot)
                except PageFullError:
                    continue
        page_no = self._segment.allocate_page()
        tid = self._segment.insert_record_on(page_no, payload, flag)
        return MiniTID(self._local_index(tid.page, pool), tid.slot)

    # -- local chains ------------------------------------------------------------

    def _build_chain_parts(self, payload: bytes, pool: bool) -> bytes:
        import struct

        chunks = [
            payload[i:i + _LOCAL_CHUNK]
            for i in range(0, len(payload), _LOCAL_CHUNK)
        ]
        next_mini = _NIL_MINI
        for chunk in reversed(chunks):
            part = next_mini.encode() + chunk
            next_mini = self.insert(part, flag=FLAG_LCHAIN_PART, pool=pool)
        return struct.pack(">I", len(payload)) + next_mini.encode()

    def _read_chain(self, head_payload: bytes) -> bytes:
        import struct

        total = struct.unpack_from(">I", head_payload, 0)[0]
        current = MiniTID.decode(head_payload, 4)
        out = bytearray()
        while current != _NIL_MINI:
            flag, part = self._read_raw(current)
            if flag != FLAG_LCHAIN_PART:
                raise RecordNotFoundError("broken local record chain")
            current = MiniTID.decode(part, 0)
            out += part[MINI_TID_SIZE:]
        if len(out) != total:
            raise RecordNotFoundError("local chain length mismatch")
        return bytes(out)

    def _delete_chain(self, head_payload: bytes) -> None:
        current = MiniTID.decode(head_payload, 4)
        while current != _NIL_MINI:
            flag, part = self._read_raw(current)
            next_mini = MiniTID.decode(part, 0)
            self._delete_raw(current)
            current = next_mini

    def read(self, mini: MiniTID) -> bytes:
        """Read a subtuple, following local forwards and reassembling
        local chains."""
        if METRICS.enabled and mini.local_page < len(self.page_roles):
            METRICS.inc(
                "storage.md_subtuple_reads"
                if self.page_roles[mini.local_page]
                else "storage.data_subtuple_reads"
            )
        flag, payload = self._read_raw(mini)
        if flag == FLAG_LFORWARD:
            target = MiniTID.decode(payload)
            flag, payload = self._read_raw(target)
            if flag not in (FLAG_REMOTE, FLAG_LCHAIN):
                raise RecordNotFoundError(f"broken local forward chain at {mini}")
        if flag == FLAG_LCHAIN:
            return self._read_chain(payload)
        return payload

    def _read_raw(self, mini: MiniTID) -> tuple[int, bytes]:
        tid = self.translate(mini)
        pins = self._pins
        if pins is not None:
            page = pins.get(tid.page)
            if page is None:
                page = self._pin(pins, tid.page)
            return page.read(tid.slot)
        page = self._segment.buffer.fetch(tid.page)
        try:
            return page.read(tid.slot)
        finally:
            self._segment.buffer.unpin(tid.page)

    @contextmanager
    def reading(self) -> Iterator[None]:
        """A read scope: while it is open, each page is pinned on its
        first read and stays pinned, so the subtuples of one page cost one
        logical read together.  Every pin is released at exit, also when
        the body raises.  Scopes nest; the outermost one releases.  Only
        for reads: freeing a page the scope holds pinned would fail."""
        if self._pins is not None:
            yield
            return
        self._pins = {}
        try:
            yield
        finally:
            pins, self._pins = self._pins, None
            buffer = self._segment.buffer
            for page_no in pins:
                buffer.unpin(page_no)

    def _pin(self, pins: dict, page_no: int):
        buffer = self._segment.buffer
        if len(pins) >= max(1, min(_SCOPE_PINS, buffer.capacity // 8)):
            oldest = next(iter(pins))
            del pins[oldest]
            buffer.unpin(oldest)
        page = buffer.fetch(page_no)
        pins[page_no] = page
        return page

    def update(self, mini: MiniTID, payload: bytes) -> None:
        """Update a subtuple; its Mini TID stays valid forever (local
        forwarding + local chaining handle any growth)."""
        pool = self._pool_of(mini)
        flag, home_payload = self._read_raw(mini)
        fits_page = len(payload) + 1 <= MAX_RECORD_SIZE
        if flag == FLAG_LFORWARD:
            remote = MiniTID.decode(home_payload)
            remote_flag, remote_payload = self._read_raw(remote)
            if remote_flag == FLAG_LCHAIN:
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
            new_remote = self._store_body(payload, pool)
            self._update_in_place(mini, new_remote.encode(), FLAG_LFORWARD)
            return
        if flag == FLAG_LCHAIN:
            self._delete_chain(home_payload)
            if not fits_page:
                head = self._build_chain_parts(payload, pool)
                self._update_in_place(mini, head, FLAG_LCHAIN)
                return
            try:
                self._update_in_place(mini, payload, FLAG_NORMAL)
                return
            except PageFullError:
                remote = self._store_body(payload, pool)
                self._update_in_place(mini, remote.encode(), FLAG_LFORWARD)
                return
        if fits_page:
            try:
                self._update_in_place(mini, payload, flag)
                return
            except PageFullError:
                remote = self._store_body(payload, pool)
                self._update_in_place(mini, remote.encode(), FLAG_LFORWARD)
                return
        head = self._build_chain_parts(payload, pool)
        try:
            self._update_in_place(mini, head, FLAG_LCHAIN)
        except PageFullError:
            head_mini = self.insert(head, flag=FLAG_LCHAIN, pool=pool)
            self._update_in_place(mini, head_mini.encode(), FLAG_LFORWARD)

    def _store_body(self, payload: bytes, pool: bool) -> MiniTID:
        if len(payload) + 1 > MAX_RECORD_SIZE:
            head = self._build_chain_parts(payload, pool)
            return self.insert(head, flag=FLAG_LCHAIN, pool=pool)
        return self.insert(payload, flag=FLAG_REMOTE, pool=pool)

    def _update_in_place(self, mini: MiniTID, payload: bytes, flag: int) -> None:
        tid = self.translate(mini)
        page = self._segment.buffer.fetch(tid.page, write=True)
        try:
            page.update(tid.slot, payload, flag)
            self._segment._free_map[tid.page] = page.free_space
        finally:
            self._segment.buffer.unpin(tid.page, dirty=True)

    def delete(self, mini: MiniTID) -> None:
        """Delete a subtuple; a page that empties is freed, leaving a gap
        in the page list."""
        flag, payload = self._read_raw(mini)
        if flag == FLAG_LFORWARD:
            remote = MiniTID.decode(payload)
            remote_flag, remote_payload = self._read_raw(remote)
            if remote_flag == FLAG_LCHAIN:
                self._delete_chain(remote_payload)
            self._delete_raw(remote)
        elif flag == FLAG_LCHAIN:
            self._delete_chain(payload)
        self._delete_raw(mini)

    def _delete_raw(self, mini: MiniTID) -> None:
        tid = self.translate(mini)
        page = self._segment.buffer.fetch(tid.page, write=True)
        try:
            page.delete(tid.slot)
            live = page.live_records
            self._segment._free_map[tid.page] = page.free_space
        finally:
            self._segment.buffer.unpin(tid.page, dirty=True)
        if live == 0:
            self.remove_page(tid.page)

    def remove_page(self, page_no: int) -> None:
        """Drop a page from the address space, leaving a ``None`` gap."""
        for index, entry in enumerate(self.page_list):
            if entry == page_no:
                self.page_list[index] = None
                self.page_list_dirty = True
                if self._segment.owns(page_no):
                    self._segment.free_page(page_no)
                return
        raise SegmentError(f"page {page_no} not in this address space")
