"""Tests for subtuple byte codecs and heap files."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import paper
from repro.errors import StorageError
from repro.model.schema import atomic, table
from repro.model.values import TupleValue
from repro.storage.buffer import BufferManager
from repro.storage.heap import HeapFile
from repro.storage.pagedfile import MemoryPagedFile
from repro.storage.segment import Segment
from repro.storage.subtuple import (
    KIND_DATA,
    POINTER_C,
    POINTER_D,
    decode_data_subtuple,
    decode_md_subtuple,
    decode_root_md,
    encode_data_subtuple,
    encode_md_subtuple,
    encode_root_md,
    subtuple_kind,
)
from repro.storage.tid import MiniTID, TID, decode_optional_mini, encode_optional_mini

ALL_TYPES = table(
    "T",
    atomic("I", "INT"),
    atomic("F", "FLOAT"),
    atomic("S", "STRING"),
    atomic("B", "BOOL"),
    atomic("D", "DATE"),
)


def test_data_subtuple_roundtrip_all_types():
    values = (-42, 3.25, "héllo wörld", True, datetime.date(1986, 5, 1))
    payload = encode_data_subtuple(ALL_TYPES.attributes, values)
    assert subtuple_kind(payload) == KIND_DATA
    assert decode_data_subtuple(ALL_TYPES.attributes, payload) == values


def test_data_subtuple_nulls():
    values = (None, None, None, None, None)
    payload = encode_data_subtuple(ALL_TYPES.attributes, values)
    assert decode_data_subtuple(ALL_TYPES.attributes, payload) == values


def test_data_subtuple_mixed_nulls():
    values = (7, None, "x", None, datetime.date(2000, 1, 1))
    payload = encode_data_subtuple(ALL_TYPES.attributes, values)
    assert decode_data_subtuple(ALL_TYPES.attributes, payload) == values


def test_data_subtuple_skips_table_attributes():
    schema = paper.DEPARTMENTS_SCHEMA
    payload = encode_data_subtuple(schema.attributes, (314, 56194, 320000))
    assert decode_data_subtuple(schema.attributes, payload) == (314, 56194, 320000)


def test_data_subtuple_arity_mismatch():
    with pytest.raises(StorageError):
        encode_data_subtuple(ALL_TYPES.attributes, (1, 2))


INT_STRING = table("T", atomic("N", "INT"), atomic("S", "STRING"))


def test_decode_rejects_payload_cut_inside_a_string():
    payload = encode_data_subtuple(INT_STRING.attributes, (1, "hello"))
    assert decode_data_subtuple(INT_STRING.attributes, payload) == (1, "hello")
    with pytest.raises(StorageError, match="truncated"):
        decode_data_subtuple(INT_STRING.attributes, payload[:-2])


def test_decode_rejects_payload_cut_inside_an_int():
    payload = encode_data_subtuple(INT_STRING.attributes, (1, "hello"))
    with pytest.raises(StorageError, match="truncated"):
        decode_data_subtuple(INT_STRING.attributes, payload[:5])
    # the same with a NULL in the row (the field-by-field path)
    payload = encode_data_subtuple(ALL_TYPES.attributes, (7, None, "x", True, None))
    with pytest.raises(StorageError, match="truncated"):
        decode_data_subtuple(ALL_TYPES.attributes, payload[:5])


def test_decode_rejects_trailing_garbage():
    payload = encode_data_subtuple(INT_STRING.attributes, (1, "hello"))
    with pytest.raises(StorageError, match="trailing"):
        decode_data_subtuple(INT_STRING.attributes, payload + b"\x00\x01")
    flat_ints = table("T", atomic("A", "INT"), atomic("B", "INT"))
    payload = encode_data_subtuple(flat_ints.attributes, (1, 2))
    with pytest.raises(StorageError, match="trailing"):
        decode_data_subtuple(flat_ints.attributes, payload + b"\x00")


def test_decode_rejects_corrupt_bytes():
    payload = bytearray(encode_data_subtuple(INT_STRING.attributes, (1, "hi")))
    payload[-1] = 0xFF  # not UTF-8
    with pytest.raises(StorageError, match="corrupt"):
        decode_data_subtuple(INT_STRING.attributes, bytes(payload))
    date_only = table("T", atomic("D", "DATE"))
    with pytest.raises(StorageError, match="corrupt"):
        decode_data_subtuple(date_only.attributes, bytes([KIND_DATA, 0, 0, 0, 0, 0]))
    with pytest.raises(StorageError):
        decode_data_subtuple(INT_STRING.attributes, b"")


def test_decode_wrong_kind_rejected():
    md = encode_md_subtuple([[(POINTER_D, MiniTID(0, 0))]])
    with pytest.raises(StorageError):
        decode_data_subtuple(ALL_TYPES.attributes, md)
    data = encode_data_subtuple(ALL_TYPES.attributes, (1, 1.0, "s", False, None))
    with pytest.raises(StorageError):
        decode_md_subtuple(data)
    with pytest.raises(StorageError):
        decode_root_md(data)


def test_md_subtuple_roundtrip():
    groups = [
        [(POINTER_D, MiniTID(0, 1)), (POINTER_C, MiniTID(0, 2)), (POINTER_C, MiniTID(1, 0))],
        [(POINTER_D, MiniTID(2, 5))],
        [],
    ]
    payload = encode_md_subtuple(groups)
    assert decode_md_subtuple(payload) == groups


def test_md_subtuple_truncated_pointer_list_rejected():
    payload = encode_md_subtuple([[(POINTER_D, MiniTID(0, 1)), (POINTER_C, MiniTID(0, 2))]])
    for cut in (1, 2, 5):
        with pytest.raises(StorageError):
            decode_md_subtuple(payload[:-cut])


def test_root_md_roundtrip_with_gaps():
    page_list = [17, None, 23, None, 99]
    groups = [[(POINTER_D, MiniTID(0, 0)), (POINTER_C, MiniTID(2, 3))]]
    payload = encode_root_md(page_list, groups)
    decoded_pages, decoded_groups, decoded_roles = decode_root_md(payload)
    assert decoded_pages == page_list
    assert decoded_groups == groups
    assert decoded_roles == [False] * 5


def test_root_md_roundtrip_with_page_roles():
    page_list = [4, None, 9]
    roles = [True, False, False]
    payload = encode_root_md(page_list, [[]], roles)
    decoded_pages, _groups, decoded_roles = decode_root_md(payload)
    assert decoded_pages == page_list
    assert decoded_roles[0] is True and decoded_roles[2] is False


def test_invalid_pointer_tag_rejected():
    with pytest.raises(StorageError):
        encode_md_subtuple([[(0x77, MiniTID(0, 0))]])


def test_tid_encoding_roundtrip():
    tid = TID(123456, 42)
    assert TID.decode(tid.encode()) == tid
    mini = MiniTID(7, 99)
    assert MiniTID.decode(mini.encode()) == mini
    assert decode_optional_mini(encode_optional_mini(None)) is None
    assert decode_optional_mini(encode_optional_mini(mini)) == mini


def test_mini_tid_smaller_than_tid():
    """The paper's space argument for Mini TIDs."""
    assert len(MiniTID(0, 0).encode()) < len(TID(0, 0).encode())


@given(
    st.tuples(
        st.one_of(st.none(), st.integers(-2**40, 2**40)),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
        st.one_of(st.none(), st.text(max_size=200)),
        st.one_of(st.none(), st.booleans()),
        st.one_of(st.none(), st.dates()),
    )
)
@settings(max_examples=80)
def test_property_data_subtuple_roundtrip(values):
    payload = encode_data_subtuple(ALL_TYPES.attributes, values)
    assert decode_data_subtuple(ALL_TYPES.attributes, payload) == values


# -- heap files --------------------------------------------------------------------


def make_heap(schema):
    buffer = BufferManager(MemoryPagedFile(), capacity=64)
    return HeapFile(Segment(buffer), schema)


def test_heap_rejects_nested_schema():
    buffer = BufferManager(MemoryPagedFile(), capacity=8)
    with pytest.raises(ValueError):
        HeapFile(Segment(buffer), paper.DEPARTMENTS_SCHEMA)


def test_heap_crud_and_scan():
    heap = make_heap(paper.MEMBERS_1NF_SCHEMA)
    source = paper.members_1nf()
    tids = [heap.insert(row) for row in source]
    assert heap.count() == 17
    fetched = heap.fetch(tids[0])
    assert fetched == source.rows[0]
    heap.update(tids[0], fetched.replace(FUNCTION="Emeritus"))
    assert heap.fetch(tids[0])["FUNCTION"] == "Emeritus"
    heap.delete(tids[1])
    assert heap.count() == 16
    scanned = {tid: row for tid, row in heap.scan()}
    assert tids[1] not in scanned
    assert scanned[tids[0]]["FUNCTION"] == "Emeritus"


def test_heap_many_rows_span_pages():
    heap = make_heap(paper.EMPLOYEES_1NF_SCHEMA)
    rows = [
        TupleValue.from_plain(
            paper.EMPLOYEES_1NF_SCHEMA, (i, "L" * 50, "F" * 30, "male")
        )
        for i in range(500)
    ]
    tids = [heap.insert(row) for row in rows]
    assert len({t.page for t in tids}) > 1
    assert heap.count() == 500
    assert heap.fetch(tids[250])["EMPNO"] == 250
