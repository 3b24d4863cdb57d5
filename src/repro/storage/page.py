"""Slotted pages.

Layout (bookkeeping integers big-endian u16, durability fields u32)::

    0..2   slot_count          entries in the slot directory
    2..4   free_ptr            end of the used data region
    4..6   live_records        records currently stored
    6..8   fragmented_bytes    reclaimable space inside the data region
    8..12  page_lsn            LSN of the newest WAL record covering this page
    12..16 checksum            CRC32 of the page (0 = unstamped), set on flush
    16..free_ptr               record data (flag byte + payload each)
    ...                        free space
    end-4*slot_count..end      slot directory, growing backwards

Slot-directory entry ``i`` lives at ``PAGE_SIZE - 4*(i+1)`` and holds
``(offset, length)`` of its record; ``offset == 0`` marks a free slot.  Slot
numbers are *stable*: deleting a record frees its entry for reuse but never
renumbers others — the invariant TIDs and Mini TIDs rely on.

Records carry a one-byte flag (see :mod:`repro.storage.constants`) used for
forwarding when an update outgrows its page.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Optional, Union

from repro.errors import PageFullError, RecordNotFoundError, RecordTooLargeError, StorageError
from repro.storage.constants import (
    FLAG_NORMAL,
    MAX_RECORD_SIZE,
    PAGE_CHECKSUM_OFFSET,
    PAGE_HEADER_SIZE,
    PAGE_LSN_OFFSET,
    PAGE_SIZE,
    SLOT_ENTRY_SIZE,
)

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_SLOT = struct.Struct(">HH")


# ---------------------------------------------------------------------------
# Durability helpers (pageLSN + torn-write checksum)
# ---------------------------------------------------------------------------


def compute_checksum(buffer: Union[bytes, bytearray, memoryview]) -> int:
    """CRC32 over the whole page, excluding the checksum field itself.

    Never returns 0 — a stored checksum of 0 means "page was written by a
    path that does not stamp checksums, skip verification" (this keeps old
    page files readable and lets checksums be ablated)."""
    crc = zlib.crc32(bytes(buffer[:PAGE_CHECKSUM_OFFSET]))
    crc = zlib.crc32(bytes(buffer[PAGE_CHECKSUM_OFFSET + 4:]), crc)
    crc &= 0xFFFFFFFF
    return crc or 1


def stamp_checksum(buffer: bytearray) -> int:
    """Compute and store the page checksum; returns the stamped value."""
    crc = compute_checksum(buffer)
    _U32.pack_into(buffer, PAGE_CHECKSUM_OFFSET, crc)
    return crc


def clear_checksum(buffer: bytearray) -> None:
    """Mark the page as unstamped (checksum verification will skip it)."""
    _U32.pack_into(buffer, PAGE_CHECKSUM_OFFSET, 0)


def stored_checksum(buffer: Union[bytes, bytearray]) -> int:
    return _U32.unpack_from(buffer, PAGE_CHECKSUM_OFFSET)[0]


def checksum_ok(buffer: Union[bytes, bytearray]) -> bool:
    """True when the page has no stamped checksum or the stamp matches."""
    stored = stored_checksum(buffer)
    return stored == 0 or stored == compute_checksum(buffer)


def get_page_lsn(buffer: Union[bytes, bytearray]) -> int:
    return _U32.unpack_from(buffer, PAGE_LSN_OFFSET)[0]


def set_page_lsn(buffer: bytearray, lsn: int) -> None:
    """Stamp the pageLSN (truncated to u32; the WAL is checkpoint-truncated
    long before offsets approach 4 GiB)."""
    _U32.pack_into(buffer, PAGE_LSN_OFFSET, lsn & 0xFFFFFFFF)


class Page:
    """A slotted page over a ``bytearray`` buffer.

    The class is a view: it never copies the buffer, so mutations are seen
    by the buffer manager's frame directly.
    """

    __slots__ = ("buffer",)

    def __init__(self, buffer: bytearray):
        if len(buffer) != PAGE_SIZE:
            raise StorageError(f"page buffer must be {PAGE_SIZE} bytes")
        self.buffer = buffer

    @classmethod
    def format(cls, buffer: Optional[bytearray] = None) -> "Page":
        """Initialize an empty page."""
        if buffer is None:
            buffer = bytearray(PAGE_SIZE)
        page = cls(buffer)
        page._set_slot_count(0)
        page._set_free_ptr(PAGE_HEADER_SIZE)
        page._set_live_records(0)
        page._set_fragmented(0)
        set_page_lsn(buffer, 0)
        clear_checksum(buffer)
        return page

    @property
    def page_lsn(self) -> int:
        """LSN of the newest WAL record that logged this page's image."""
        return get_page_lsn(self.buffer)

    # -- header accessors ---------------------------------------------------

    def _get_u16(self, offset: int) -> int:
        return _U16.unpack_from(self.buffer, offset)[0]

    def _set_u16(self, offset: int, value: int) -> None:
        _U16.pack_into(self.buffer, offset, value)

    @property
    def slot_count(self) -> int:
        return self._get_u16(0)

    def _set_slot_count(self, value: int) -> None:
        self._set_u16(0, value)

    @property
    def _free_ptr(self) -> int:
        return self._get_u16(2)

    def _set_free_ptr(self, value: int) -> None:
        self._set_u16(2, value)

    @property
    def live_records(self) -> int:
        return self._get_u16(4)

    def _set_live_records(self, value: int) -> None:
        self._set_u16(4, value)

    @property
    def _fragmented(self) -> int:
        return self._get_u16(6)

    def _set_fragmented(self, value: int) -> None:
        self._set_u16(6, value)

    # -- slot directory -------------------------------------------------------

    def _slot_position(self, slot: int) -> int:
        return PAGE_SIZE - SLOT_ENTRY_SIZE * (slot + 1)

    def _slot_entry(self, slot: int) -> tuple[int, int]:
        buffer = self.buffer
        if slot >= _U16.unpack_from(buffer, 0)[0] or slot < 0:
            raise RecordNotFoundError(f"slot {slot} out of range")
        position = PAGE_SIZE - SLOT_ENTRY_SIZE * (slot + 1)
        if position < PAGE_HEADER_SIZE:
            raise StorageError(f"slot {slot} lies outside the slot directory")
        return _SLOT.unpack_from(buffer, position)

    def _set_slot_entry(self, slot: int, offset: int, length: int) -> None:
        position = self._slot_position(slot)
        self._set_u16(position, offset)
        self._set_u16(position + 2, length)

    def _find_free_slot(self) -> Optional[int]:
        for slot in range(self.slot_count):
            offset, _length = self._get_u16(self._slot_position(slot)), 0
            if offset == 0:
                return slot
        return None

    # -- space accounting ------------------------------------------------------

    @property
    def contiguous_free(self) -> int:
        return PAGE_SIZE - SLOT_ENTRY_SIZE * self.slot_count - self._free_ptr

    @property
    def free_space(self) -> int:
        """Total reclaimable free bytes (after a compaction)."""
        return self.contiguous_free + self._fragmented

    # -- record operations -------------------------------------------------------

    def insert(self, payload: bytes, flag: int = FLAG_NORMAL) -> int:
        """Insert a record; returns its (stable) slot number."""
        record_length = len(payload) + 1
        if record_length > MAX_RECORD_SIZE + 1:
            raise RecordTooLargeError(
                f"record of {len(payload)} bytes exceeds page capacity"
            )
        free_slot = self._find_free_slot()
        needed = record_length + (0 if free_slot is not None else SLOT_ENTRY_SIZE)
        if self.free_space < needed:
            raise PageFullError("page cannot hold this record")
        if self.contiguous_free < needed:
            self._compact()
        if free_slot is None:
            free_slot = self.slot_count
            self._set_slot_count(free_slot + 1)
        offset = self._free_ptr
        self.buffer[offset] = flag
        self.buffer[offset + 1:offset + record_length] = payload
        self._set_free_ptr(offset + record_length)
        self._set_slot_entry(free_slot, offset, record_length)
        self._set_live_records(self.live_records + 1)
        return free_slot

    def span(self, slot: int) -> tuple[int, int, int]:
        """Locate a record without copying it: returns ``(flag, start,
        end)``, the payload being ``buffer[start:end]``."""
        offset, length = self._slot_entry(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is empty")
        if not offset < offset + length <= PAGE_SIZE:
            raise StorageError(f"slot {slot} runs past the page")
        return self.buffer[offset], offset + 1, offset + length

    def read(self, slot: int) -> tuple[int, bytes]:
        """Read a record: returns (flag, payload)."""
        flag, start, end = self.span(slot)
        return flag, bytes(self.buffer[start:end])

    def update(self, slot: int, payload: bytes, flag: Optional[int] = None) -> None:
        """Replace a record in place, keeping its slot number.

        Raises :class:`PageFullError` if the page cannot hold the new
        payload even after compaction (the caller then relocates the record
        and leaves a forward stub).
        """
        offset, length = self._slot_entry(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is empty")
        if flag is None:
            flag = self.buffer[offset]
        new_length = len(payload) + 1
        if new_length <= length:
            self.buffer[offset] = flag
            self.buffer[offset + 1:offset + 1 + len(payload)] = payload
            if new_length < length:
                self._set_fragmented(self._fragmented + (length - new_length))
                self._set_slot_entry(slot, offset, new_length)
            return
        # Record grows: free old space, place the new record at the end.
        growth = new_length - length
        if self.contiguous_free + self._fragmented < growth:
            raise PageFullError("updated record does not fit in this page")
        self._set_fragmented(self._fragmented + length)
        self._set_slot_entry(slot, 0, 0)  # temporarily free, survives compaction
        if self.contiguous_free < new_length:
            self._compact()
        offset = self._free_ptr
        self.buffer[offset] = flag
        self.buffer[offset + 1:offset + new_length] = payload
        self._set_free_ptr(offset + new_length)
        self._set_slot_entry(slot, offset, new_length)

    def delete(self, slot: int) -> None:
        offset, length = self._slot_entry(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is already empty")
        self._set_slot_entry(slot, 0, 0)
        self._set_fragmented(self._fragmented + length)
        self._set_live_records(self.live_records - 1)
        # Shrink the slot directory if trailing slots are free.
        count = self.slot_count
        while count > 0:
            if self._get_u16(self._slot_position(count - 1)) != 0:
                break
            count -= 1
        self._set_slot_count(count)

    def slots(self) -> Iterator[tuple[int, int, bytes]]:
        """Iterate live records as (slot, flag, payload)."""
        for slot in range(self.slot_count):
            offset, length = self._slot_entry(slot)
            if offset == 0:
                continue
            flag = self.buffer[offset]
            yield slot, flag, bytes(self.buffer[offset + 1:offset + length])

    # -- internal ------------------------------------------------------------------

    def _compact(self) -> None:
        """Rewrite the data region to squeeze out fragmentation.

        Slot numbers (and therefore TIDs) are unaffected; only record
        offsets move.
        """
        records = []
        for slot in range(self.slot_count):
            offset, length = self._slot_entry(slot)
            if offset != 0:
                records.append((slot, bytes(self.buffer[offset:offset + length])))
        write_ptr = PAGE_HEADER_SIZE
        for slot, data in records:
            self.buffer[write_ptr:write_ptr + len(data)] = data
            self._set_slot_entry(slot, write_ptr, len(data))
            write_ptr += len(data)
        self._set_free_ptr(write_ptr)
        self._set_fragmented(0)
