"""Byte codecs for subtuples.

Two kinds of subtuple exist (Section 4.1):

* **data subtuples** hold the "first level" atomic attribute values of an
  object or subobject — and *no* structural information;
* **MD subtuples** hold only structure: ``D`` pointers (→ data subtuples)
  and ``C`` pointers (→ MD subtuples), encoded as Mini TIDs, plus — in the
  root MD subtuple — the complex object's page list.

A one-byte kind tag leads every subtuple so a page can be audited.
"""

from __future__ import annotations

import datetime
import struct
from typing import Callable, Optional, Sequence, Union

from repro.errors import StorageError
from repro.model.schema import AttributeSchema
from repro.model.types import AtomicType
from repro.model.values import AtomicValue
from repro.storage.tid import MiniTID

# Subtuple kind tags.
KIND_DATA = 0xD1
KIND_MD = 0xE1
KIND_ROOT = 0xE2

# Pointer tags inside MD subtuples — the paper's "D" and "C".
POINTER_D = 0x01
POINTER_C = 0x02

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
#: one D/C pointer: tag, then the Mini TID (page-list index, slot)
_POINTER = struct.Struct(">BHH")

#: page-list entry representing a gap left by a removed page
_PAGE_GAP = 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Data subtuples
# ---------------------------------------------------------------------------


def encode_data_subtuple(
    attributes: Sequence[AttributeSchema], values: Sequence[AtomicValue]
) -> bytes:
    """Encode the atomic attribute values (in schema order).

    *attributes* may include table-valued attributes; they are skipped, so
    callers can pass a full schema attribute list together with
    ``TupleValue.atomic_values()``.
    """
    atomic_attrs = [a for a in attributes if a.is_atomic]
    if len(atomic_attrs) != len(values):
        raise StorageError(
            f"expected {len(atomic_attrs)} atomic values, got {len(values)}"
        )
    null_bitmap = bytearray((len(atomic_attrs) + 7) // 8)
    body = bytearray()
    for index, (attr, value) in enumerate(zip(atomic_attrs, values)):
        if value is None:
            null_bitmap[index // 8] |= 1 << (index % 8)
            continue
        assert attr.atomic_type is not None
        body += _encode_atom(attr.atomic_type, value)
    return bytes([KIND_DATA]) + bytes(null_bitmap) + bytes(body)


def decode_data_subtuple(
    attributes: Sequence[AttributeSchema], payload: bytes
) -> tuple[AtomicValue, ...]:
    """Inverse of :func:`encode_data_subtuple`."""
    decode = data_layout(attributes).decode
    return tuple(decode(payload, 0, len(payload)))


def _encode_atom(type_: AtomicType, value: AtomicValue) -> bytes:
    if type_ is AtomicType.INT:
        return _I64.pack(value)  # type: ignore[arg-type]
    if type_ is AtomicType.FLOAT:
        return _F64.pack(value)  # type: ignore[arg-type]
    if type_ is AtomicType.STRING:
        raw = str(value).encode("utf-8")
        if len(raw) > 0xFFFF:
            raise StorageError("string longer than 65535 bytes")
        return _U16.pack(len(raw)) + raw
    if type_ is AtomicType.BOOL:
        return b"\x01" if value else b"\x00"
    if type_ is AtomicType.DATE:
        assert isinstance(value, datetime.date)
        return _U32.pack(value.toordinal())
    raise StorageError(f"unhandled type {type_}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Data-subtuple layouts: the decoder, compiled once per attribute layout
# ---------------------------------------------------------------------------

#: struct code and post-conversion of each fixed-width atomic type (BOOL is
#: one byte, non-zero meaning true; DATE a u32 proleptic ordinal)
_FIXED = {
    AtomicType.INT: ("q", None),
    AtomicType.FLOAT: ("d", None),
    AtomicType.BOOL: ("?", None),
    AtomicType.DATE: ("I", datetime.date.fromordinal),
}

#: A decoder: ``decode(buffer, start, end)`` -> the values of the record
#: ``buffer[start:end]``, read straight from *buffer* (a page frame or a
#: payload) without copying the record.
Decoder = Callable[[Union[bytes, bytearray], int, int], Sequence[AtomicValue]]


def _truncated() -> StorageError:
    return StorageError("truncated data subtuple")


def _reader(type_: AtomicType, keep: bool):
    """``read(buffer, pos, end, out) -> pos`` for one present field: it
    appends the value to *out* only when the field is kept.  A string is
    a u16 length prefix and UTF-8 bytes, skipped by its length when not
    kept."""
    if type_ is AtomicType.STRING:
        length_from = _U16.unpack_from

        def read_string(buffer, pos, end, out):
            start = pos + 2
            if start > end:
                raise _truncated()
            stop = start + length_from(buffer, pos)[0]
            if stop > end:
                raise _truncated()
            if keep:
                out.append(buffer[start:stop].decode("utf-8"))
            return stop

        return read_string
    code, convert = _FIXED[type_]
    field = struct.Struct(">" + code)
    width = field.size
    unpack_from = field.unpack_from

    def read_fixed(buffer, pos, end, out):
        stop = pos + width
        if stop > end:
            raise _truncated()
        if keep:
            value = unpack_from(buffer, pos)[0]
            out.append(value if convert is None else convert(value))
        return stop

    return read_fixed


def _compile_decoder(types: tuple[AtomicType, ...], kept: frozenset) -> Decoder:
    """The decoder of one layout, returning the fields at the indexes in
    *kept* in schema order.

    No NULL (the bitmap is all zero) is the fast path: every field is
    present, so the leading run of fixed-width fields sits at fixed offsets
    and one precompiled ``struct`` unpacks it (dropped fields become pad
    bytes); the remaining fields are read by their width or length prefix.
    A non-zero bitmap takes the field-by-field path.  Both raise
    :class:`StorageError` unless decoding ends exactly at *end*."""
    count = len(types)
    body = 1 + (count + 7) // 8
    no_nulls = bytes(body - 1)
    lead = 0
    while lead < count and types[lead] in _FIXED:
        lead += 1
    head_format = ">"
    converts = []  # (position in the output, conversion) of kept fields
    kept_in_head = 0
    for i in range(lead):
        code, convert = _FIXED[types[i]]
        if i not in kept:
            head_format += f"{struct.calcsize('>' + code)}x"
            continue
        head_format += code
        if convert is not None:
            converts.append((kept_in_head, convert))
        kept_in_head += 1
    head = struct.Struct(head_format)
    head_end = body + head.size
    unpack_head = head.unpack_from
    fields = [(_reader(types[i], i in kept), i in kept) for i in range(count)]
    tail = [read for read, _keep in fields[lead:]]
    head_only = not tail and not converts
    one_byte_bitmap = body == 2

    def with_nulls(buffer, start, end):
        pos = start + body
        if pos > end:
            raise _truncated()
        out: list = []
        for index, (read, keep) in enumerate(fields):
            if buffer[start + 1 + (index >> 3)] & (1 << (index & 7)):
                if keep:
                    out.append(None)
            else:
                pos = read(buffer, pos, end, out)
        return pos, out

    def decode(buffer, start, end):
        if start >= end or buffer[start] != KIND_DATA:
            raise StorageError("not a data subtuple")
        try:
            if start + head_end > end or (
                buffer[start + 1] if one_byte_bitmap
                else buffer[start + 1:start + body] != no_nulls
            ):
                pos, out = with_nulls(buffer, start, end)
            else:
                values = unpack_head(buffer, start + body)
                if head_only:
                    if start + head_end != end:
                        raise StorageError("data subtuple has trailing bytes")
                    return values
                out = list(values)
                for position, convert in converts:
                    out[position] = convert(out[position])
                pos = start + head_end
                for read in tail:
                    pos = read(buffer, pos, end, out)
        except (ValueError, OverflowError) as exc:  # bad UTF-8, date ordinal
            raise StorageError(f"corrupt data subtuple: {exc}") from exc
        if pos != end:
            raise StorageError("data subtuple has trailing bytes")
        return out

    return decode


class DataLayout:
    """The atomic attributes of one schema level, with their decoders.

    Built once per attribute tuple (:func:`data_layout`) and shared by
    every reader of that layout: heap fetches, heap scans, columnar
    chunks and complex-object data subtuples."""

    __slots__ = ("names", "types", "decode", "_projections")

    def __init__(self, attributes: Sequence[AttributeSchema]):
        atomic_attrs = [a for a in attributes if a.is_atomic]
        self.names: tuple[str, ...] = tuple(a.name for a in atomic_attrs)
        self.types: tuple[AtomicType, ...] = tuple(
            a.atomic_type for a in atomic_attrs  # type: ignore[misc]
        )
        #: decodes every field
        self.decode: Decoder = _compile_decoder(
            self.types, frozenset(range(len(self.types)))
        )
        self._projections: dict = {}

    def projection(
        self, needed: Optional[frozenset] = None
    ) -> tuple[tuple[str, ...], Decoder]:
        """``(names, decode)`` for the attributes in *needed* (all when
        ``None``), in schema order; unreferenced strings are skipped by
        their length prefix, never decoded."""
        cached = self._projections.get(needed)
        if cached is None:
            if needed is None:
                cached = (self.names, self.decode)
            else:
                kept = frozenset(
                    i for i, name in enumerate(self.names) if name in needed
                )
                cached = (
                    tuple(name for name in self.names if name in needed),
                    _compile_decoder(self.types, kept),
                )
            if len(self._projections) >= _LAYOUT_CACHE_SIZE:
                self._projections.clear()
            self._projections[needed] = cached
        return cached


#: id(attribute tuple) -> (the tuple, its layout); holding the tuple keeps
#: the id from being reused while the entry lives.  Keyed by identity, not
#: by value: hashing a nested schema's attribute tuple walks the whole
#: schema tree, which would cost more than the decode it saves.
_LAYOUTS: dict[int, tuple[Sequence[AttributeSchema], DataLayout]] = {}
_LAYOUT_CACHE_SIZE = 1024


def data_layout(attributes: Sequence[AttributeSchema]) -> DataLayout:
    """The (cached) :class:`DataLayout` of an attribute tuple."""
    cached = _LAYOUTS.get(id(attributes))
    if cached is not None and cached[0] is attributes:
        return cached[1]
    layout = DataLayout(attributes)
    if len(_LAYOUTS) >= _LAYOUT_CACHE_SIZE:
        _LAYOUTS.clear()
    _LAYOUTS[id(attributes)] = (attributes, layout)
    return layout


# ---------------------------------------------------------------------------
# MD subtuples
# ---------------------------------------------------------------------------


def encode_pointers(pointers: Sequence[tuple[int, MiniTID]]) -> bytes:
    """Encode a D/C pointer sequence: u16 count, then (tag, MiniTID) each."""
    out = bytearray(_U16.pack(len(pointers)))
    for tag, mini in pointers:
        if tag not in (POINTER_D, POINTER_C):
            raise StorageError(f"invalid pointer tag {tag}")
        out.append(tag)
        out += mini.encode()
    return bytes(out)


def _count_at(payload: bytes, offset: int) -> int:
    """The u16 count at *offset*, or StorageError past the payload's end."""
    if offset + 2 > len(payload):
        raise StorageError("truncated MD subtuple")
    return _U16.unpack_from(payload, offset)[0]


def decode_pointers(payload: bytes, offset: int) -> tuple[list[tuple[int, MiniTID]], int]:
    count = _count_at(payload, offset)
    start = offset + 2
    end = start + _POINTER.size * count
    if end > len(payload):
        raise StorageError("truncated pointer list")
    pointers = [
        (tag, MiniTID(local_page, slot))
        for tag, local_page, slot in _POINTER.iter_unpack(payload[start:end])
    ]
    return pointers, end


PointerGroup = Sequence[tuple[int, MiniTID]]


def encode_pointer_groups(groups: Sequence[PointerGroup]) -> bytes:
    """Encode a sequence of pointer groups (u16 group count, then each
    group as a pointer sequence).

    Groups give the three storage structures their shapes: e.g. an SS3
    subtable MD subtuple uses one group per subobject, an SS2 MD subtuple
    one group per subtable.
    """
    out = bytearray(_U16.pack(len(groups)))
    for group in groups:
        out += encode_pointers(group)
    return bytes(out)


def decode_pointer_groups(payload: bytes, offset: int) -> tuple[list[list[tuple[int, MiniTID]]], int]:
    count = _count_at(payload, offset)
    offset += 2
    groups: list[list[tuple[int, MiniTID]]] = []
    for _ in range(count):
        pointers, offset = decode_pointers(payload, offset)
        groups.append(pointers)
    return groups, offset


def encode_md_subtuple(groups: Sequence[PointerGroup]) -> bytes:
    """An inner MD subtuple: kind tag + pointer groups."""
    return bytes([KIND_MD]) + encode_pointer_groups(groups)


def decode_md_subtuple(payload: bytes) -> list[list[tuple[int, MiniTID]]]:
    if not payload or payload[0] != KIND_MD:
        raise StorageError("not an MD subtuple")
    groups, _offset = decode_pointer_groups(payload, 1)
    return groups


#: high bit of a page-list entry marks an MD page (structure/data
#: separation at the page level)
_MD_PAGE_FLAG = 0x8000_0000


def encode_root_md(
    page_list: Sequence[Optional[int]],
    groups: Sequence[PointerGroup],
    page_roles: Optional[Sequence[bool]] = None,
) -> bytes:
    """The root MD subtuple: kind tag + page list + pointer groups.

    The page list *is* the complex object's local address space; ``None``
    entries are gaps left by removed pages (kept so existing Mini TIDs stay
    valid — Section 4.1).  ``page_roles[i]`` marks entry *i* as an MD page
    (True) or data page (False), encoded in the entry's high bit.
    """
    out = bytearray([KIND_ROOT])
    out += _U16.pack(len(page_list))
    roles = page_roles if page_roles is not None else [False] * len(page_list)
    for entry, is_md in zip(page_list, roles):
        if entry is None:
            out += _U32.pack(_PAGE_GAP)
        else:
            if entry >= _MD_PAGE_FLAG - 1:  # keep 0xFFFFFFFF free for gaps
                raise StorageError(f"page number {entry} out of range")
            out += _U32.pack(entry | (_MD_PAGE_FLAG if is_md else 0))
    out += encode_pointer_groups(groups)
    return bytes(out)


def decode_root_md(
    payload: bytes,
) -> tuple[list[Optional[int]], list[list[tuple[int, MiniTID]]], list[bool]]:
    """Inverse of :func:`encode_root_md`; returns (page list, groups,
    page roles)."""
    if not payload or payload[0] != KIND_ROOT:
        raise StorageError("not a root MD subtuple")
    count = _count_at(payload, 1)
    offset = 3
    if offset + 4 * count > len(payload):
        raise StorageError("truncated page list")
    page_list: list[Optional[int]] = []
    page_roles: list[bool] = []
    for _ in range(count):
        entry = _U32.unpack_from(payload, offset)[0]
        if entry == _PAGE_GAP:
            page_list.append(None)
            page_roles.append(False)
        else:
            page_list.append(entry & ~_MD_PAGE_FLAG)
            page_roles.append(bool(entry & _MD_PAGE_FLAG))
        offset += 4
    groups, _offset = decode_pointer_groups(payload, offset)
    return page_list, groups, page_roles


def subtuple_kind(payload: bytes) -> int:
    if not payload:
        raise StorageError("empty subtuple")
    return payload[0]
