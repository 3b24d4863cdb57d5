"""Property tests over *random* nested schemas and data: the whole stack
(schema -> storage -> query) round-trips arbitrary extended-NF2 values."""

import datetime
import string
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.model.ddl import parse_create_table, schema_to_ddl
from repro.model.schema import AttributeSchema, TableSchema, atomic, nested, table
from repro.model.types import AtomicType
from repro.model.values import TableValue
from repro.storage.buffer import BufferManager
from repro.storage.complex_object import ComplexObjectManager
from repro.storage.minidirectory import StorageStructure
from repro.storage.pagedfile import MemoryPagedFile
from repro.storage.segment import Segment
from repro.storage.subtuple import (
    KIND_DATA,
    data_layout,
    decode_data_subtuple,
    encode_data_subtuple,
)

# -- schema strategy -----------------------------------------------------------

_NAMES = [f"A{c}" for c in string.ascii_uppercase[:12]]


@st.composite
def schemas(draw, depth=2, name_pool=None):
    """A random table schema with unique attribute names per level."""
    pool = list(name_pool or _NAMES)
    draw(st.randoms())  # decouple shrinking
    count = draw(st.integers(1, 4))
    names = draw(
        st.lists(st.sampled_from(pool), min_size=count, max_size=count, unique=True)
    )
    attributes = []
    for attr_name in names:
        make_table = depth > 0 and draw(st.booleans()) and draw(st.booleans())
        if make_table:
            inner = draw(schemas(depth=depth - 1, name_pool=[
                n for n in pool if n not in names
            ] or ["Z1", "Z2", "Z3"]))
            attributes.append(nested(attr_name, inner.rename(attr_name)))
        else:
            type_ = draw(st.sampled_from(list(AtomicType)))
            attributes.append(atomic(attr_name, type_))
    ordered = draw(st.booleans())
    return TableSchema(name="T", attributes=tuple(attributes), ordered=ordered)


@st.composite
def values_for(draw, schema, max_rows=3):
    """Random plain rows conforming to *schema*."""
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        row = {}
        for attr in schema.attributes:
            if attr.is_table:
                row[attr.name] = draw(values_for(attr.table, max_rows=2))
            else:
                row[attr.name] = draw(_atom_strategy(attr.atomic_type))
        rows.append(row)
    return rows


def _atom_strategy(type_):
    base = {
        AtomicType.INT: st.integers(-2**40, 2**40),
        AtomicType.FLOAT: st.floats(allow_nan=False, allow_infinity=False,
                                    width=32),
        AtomicType.STRING: st.text(max_size=30),
        AtomicType.BOOL: st.booleans(),
        AtomicType.DATE: st.dates(),
    }[type_]
    return st.one_of(st.none(), base)


# -- properties -------------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_property_ddl_roundtrip_random_schema(data):
    schema = data.draw(schemas())
    assert parse_create_table(schema_to_ddl(schema)) == schema


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_property_storage_roundtrip_random_schema(data):
    schema = data.draw(schemas())
    rows = data.draw(values_for(schema, max_rows=2))
    structure = data.draw(st.sampled_from(list(StorageStructure)))
    manager = ComplexObjectManager(
        Segment(BufferManager(MemoryPagedFile(), capacity=256)), structure
    )
    value_table = TableValue.from_plain(schema, rows)
    for row in value_table:
        root = manager.store(schema, row)
        assert manager.load(root, schema) == row


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_property_database_select_star_roundtrip(data):
    schema = data.draw(schemas())
    rows = data.draw(values_for(schema, max_rows=3))
    db = Database()
    db.create_table(schema)
    db.insert_many("T", rows)
    result = db.query("SELECT * FROM x IN T")
    expected = TableValue.from_plain(schema, rows)
    # SELECT * preserves contents; ordering matters iff the table is a list
    assert len(result) == len(expected)
    assert result.canonical()[1:] == expected.canonical()[1:]


def _reference_decode(types, payload: bytes) -> tuple:
    """A field-by-field model of the data-subtuple format: kind tag, NULL
    bitmap (bit i = field i is NULL), then each present field in order."""
    assert payload[0] == KIND_DATA
    pos = 1 + (len(types) + 7) // 8
    values = []
    for index, type_ in enumerate(types):
        if payload[1 + index // 8] & (1 << (index % 8)):
            values.append(None)
        elif type_ is AtomicType.STRING:
            (length,) = struct.unpack_from(">H", payload, pos)
            values.append(payload[pos + 2:pos + 2 + length].decode("utf-8"))
            pos += 2 + length
        else:
            code = {"INT": ">q", "FLOAT": ">d", "BOOL": ">B", "DATE": ">I"}[type_.value]
            (raw,) = struct.unpack_from(code, payload, pos)
            pos += struct.calcsize(code)
            if type_ is AtomicType.BOOL:
                raw = raw != 0
            elif type_ is AtomicType.DATE:
                raw = datetime.date.fromordinal(raw)
            values.append(raw)
    assert pos == len(payload)
    return tuple(values)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_compiled_decode_matches_reference(data):
    types = data.draw(st.lists(st.sampled_from(list(AtomicType)), min_size=1, max_size=12))
    attributes = tuple(atomic(f"A{i}", type_) for i, type_ in enumerate(types))
    values = tuple(data.draw(_atom_strategy(type_)) for type_ in types)
    payload = encode_data_subtuple(attributes, values)
    expected = _reference_decode(types, payload)
    layout = data_layout(attributes)
    assert tuple(layout.decode(payload, 0, len(payload))) == expected
    assert decode_data_subtuple(attributes, payload) == expected
    # straight from a frame: the record sits between other bytes
    before = data.draw(st.binary(max_size=9))
    frame = bytearray(before + payload + data.draw(st.binary(max_size=9)))
    start = len(before)
    assert tuple(layout.decode(frame, start, start + len(payload))) == expected
    # a pruned projection decodes the same values, only fewer of them
    needed = frozenset(data.draw(st.sets(st.sampled_from(layout.names))))
    names, decode = layout.projection(needed)
    assert names == tuple(n for n in layout.names if n in needed)
    assert tuple(decode(frame, start, start + len(payload))) == tuple(
        value for name, value in zip(layout.names, expected) if name in needed
    )


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_property_persistence_roundtrip(tmp_path_factory, data):
    schema = data.draw(schemas(depth=1))
    rows = data.draw(values_for(schema, max_rows=2))
    path = str(tmp_path_factory.mktemp("prop") / "db.pages")
    with Database(path=path) as db:
        db.create_table(schema)
        db.insert_many("T", rows)
        expected = db.table_value("T")
        db.save()
    with Database(path=path) as again:
        assert again.table_value("T") == expected
