"""Values of the extended NF2 data model: nested tuples and tables.

A :class:`TableValue` is a concrete instance of a :class:`TableSchema` — a
collection of :class:`TupleValue` rows.  Unordered tables compare with
multiset semantics (the paper's relations), ordered tables compare
positionally (the paper's lists).

Values can be built from plain Python data (dicts / sequences, with nested
lists for subtables) via :meth:`TableValue.from_plain` /
:meth:`TupleValue.from_plain`, and converted back with ``to_plain``.
"""

from __future__ import annotations

import datetime
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.errors import DataError
from repro.model.schema import AttributeSchema, TableSchema

AtomicValue = Union[None, int, float, str, bool, datetime.date]
PlainRow = Union[Mapping[str, Any], Sequence[Any]]


class TupleValue:
    """One tuple of a table: attribute name -> atomic value or TableValue."""

    __slots__ = ("schema", "_values")

    def __init__(self, schema: TableSchema, values: Mapping[str, Any]):
        self.schema = schema
        checked: dict[str, Any] = {}
        for attr in schema.attributes:
            if attr.name not in values:
                raise DataError(
                    f"tuple for {schema.name!r} is missing attribute {attr.name!r}"
                )
            checked[attr.name] = _check_value(attr, values[attr.name])
        extra = set(values) - set(schema.attribute_names)
        if extra:
            raise DataError(
                f"tuple for {schema.name!r} has unknown attributes {sorted(extra)!r}"
            )
        self._values = checked

    # -- construction --------------------------------------------------------

    @classmethod
    def trusted(cls, schema: TableSchema, values: dict[str, Any]) -> "TupleValue":
        """Construct without per-attribute validation.

        For engine-internal paths only (heap tuple decode, the compiled
        executor's columnar scans and star projections): *values*
        must already be schema-complete and validated, straight from
        storage decode or from another same-schema tuple.  The dict is
        adopted, not copied."""
        self = object.__new__(cls)
        self.schema = schema
        self._values = values
        return self

    @classmethod
    def from_plain(cls, schema: TableSchema, row: PlainRow) -> "TupleValue":
        """Build a tuple from a dict (by attribute name) or a sequence (by
        attribute position); nested subtables are given as lists of rows.
        """
        if isinstance(row, TupleValue):
            if row.schema is schema:
                return row
            row = row.to_plain()
        if isinstance(row, Mapping):
            items = dict(row)
            extra = set(items) - set(schema.attribute_names)
            if extra:
                raise DataError(
                    f"tuple for {schema.name!r} has unknown attributes "
                    f"{sorted(extra)!r}"
                )
        else:
            if not isinstance(row, Sequence) or isinstance(row, (str, bytes)):
                raise DataError(f"cannot build a tuple from {row!r}")
            if len(row) != len(schema.attributes):
                raise DataError(
                    f"tuple for {schema.name!r} needs {len(schema.attributes)} "
                    f"values, got {len(row)}"
                )
            items = {
                attr.name: value for attr, value in zip(schema.attributes, row)
            }
        converted: dict[str, Any] = {}
        for attr in schema.attributes:
            if attr.name not in items:
                raise DataError(
                    f"tuple for {schema.name!r} is missing attribute {attr.name!r}"
                )
            raw = items[attr.name]
            if attr.is_table:
                assert attr.table is not None
                converted[attr.name] = TableValue.from_plain(attr.table, raw)
            else:
                converted[attr.name] = raw
        return cls(schema, converted)

    # -- access ----------------------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise DataError(
                f"tuple of {self.schema.name!r} has no attribute {name!r}"
            ) from None

    def get(self, name: str, default: Any = None) -> Any:
        return self._values.get(name, default)

    def atomic_values(self) -> tuple[AtomicValue, ...]:
        """The 'first level' atomic attribute values, in schema order —
        exactly what the paper stores in one data subtuple."""
        return tuple(
            self._values[attr.name] for attr in self.schema.atomic_attributes
        )

    def replace(self, **updates: Any) -> "TupleValue":
        """Return a copy with some attribute values replaced."""
        merged = dict(self._values)
        for name, value in updates.items():
            if not self.schema.has_attribute(name):
                raise DataError(
                    f"tuple of {self.schema.name!r} has no attribute {name!r}"
                )
            attr = self.schema.attribute(name)
            if attr.is_table and not isinstance(value, TableValue):
                assert attr.table is not None
                value = TableValue.from_plain(attr.table, value)
            merged[name] = value
        return TupleValue(self.schema, merged)

    def to_plain(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for attr in self.schema.attributes:
            value = self._values[attr.name]
            out[attr.name] = value.to_plain() if isinstance(value, TableValue) else value
        return out

    # -- equality ----------------------------------------------------------------

    def canonical(self) -> tuple:
        """A hashable canonical form (unordered subtables are sorted)."""
        parts: list[Any] = []
        for attr in self.schema.attributes:
            value = self._values[attr.name]
            if isinstance(value, TableValue):
                parts.append(value.canonical())
            else:
                parts.append(_canonical_atom(value))
        return tuple(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleValue):
            return NotImplemented
        return (
            self.schema.attribute_names == other.schema.attribute_names
            and self.canonical() == other.canonical()
        )

    def __hash__(self) -> int:
        return hash((self.schema.attribute_names, self.canonical()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"TupleValue({inner})"


class TableValue:
    """A concrete table: a schema plus its rows.

    Rows are always kept in a list; for unordered tables the order is
    incidental and ignored by equality.
    """

    __slots__ = ("schema", "rows")

    def __init__(self, schema: TableSchema, rows: Iterable[TupleValue] = ()):
        self.schema = schema
        self.rows: list[TupleValue] = []
        for row in rows:
            self.append(row)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_plain(cls, schema: TableSchema, rows: Any) -> "TableValue":
        if isinstance(rows, TableValue):
            if rows.schema is schema:
                return rows
            rows = rows.to_plain()
        if rows is None:
            rows = []
        if not isinstance(rows, Iterable) or isinstance(rows, (str, bytes, Mapping)):
            raise DataError(f"cannot build table {schema.name!r} from {rows!r}")
        return cls(schema, (TupleValue.from_plain(schema, row) for row in rows))

    # -- mutation -------------------------------------------------------------

    def append(self, row: Union[TupleValue, PlainRow]) -> TupleValue:
        value = TupleValue.from_plain(self.schema, row)
        self.rows.append(value)
        return value

    def insert(self, position: int, row: Union[TupleValue, PlainRow]) -> TupleValue:
        value = TupleValue.from_plain(self.schema, row)
        self.rows.insert(position, value)
        return value

    # -- access ------------------------------------------------------------------

    @property
    def ordered(self) -> bool:
        return self.schema.ordered

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[TupleValue]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> TupleValue:
        """Positional access; meaningful for lists (paper: AUTHORS[1] —
        note the *query language* uses 1-based subscripts, this Python API
        is 0-based)."""
        return self.rows[index]

    def to_plain(self) -> list[dict[str, Any]]:
        return [row.to_plain() for row in self.rows]

    def column(self, name: str) -> list[Any]:
        """All values of one attribute."""
        return [row[name] for row in self.rows]

    # -- equality -----------------------------------------------------------------

    def canonical(self) -> tuple:
        items = [row.canonical() for row in self.rows]
        if not self.ordered:
            items.sort(key=_sort_key)
        return ("<list>" if self.ordered else "{set}",) + tuple(items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableValue):
            return NotImplemented
        return (
            self.schema.attribute_names == other.schema.attribute_names
            and self.ordered == other.ordered
            and self.canonical() == other.canonical()
        )

    def __hash__(self) -> int:
        return hash((self.schema.attribute_names, self.canonical()))

    def __repr__(self) -> str:
        kind = "list" if self.ordered else "relation"
        return f"TableValue({self.schema.name!r}, {kind}, {len(self.rows)} rows)"


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _check_value(attr: AttributeSchema, value: Any) -> Any:
    if attr.is_atomic:
        assert attr.atomic_type is not None
        return attr.atomic_type.validate(value)
    if not isinstance(value, TableValue):
        raise DataError(
            f"attribute {attr.name!r} is table-valued; got {value!r} "
            "(use TableValue.from_plain or pass a TableValue)"
        )
    assert attr.table is not None
    if value.schema.attribute_names != attr.table.attribute_names:
        raise DataError(
            f"attribute {attr.name!r} expects schema "
            f"{attr.table.attribute_names}, got {value.schema.attribute_names}"
        )
    return value


def _canonical_atom(value: AtomicValue) -> Any:
    if isinstance(value, datetime.date):
        return ("date", value.toordinal())
    return value


def _sort_key(item: Any) -> str:
    """Total order over canonical forms of heterogeneous values."""
    return repr(item)
