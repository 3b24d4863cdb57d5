"""Schemas for extended NF2 tables.

A :class:`TableSchema` describes a *table* in the paper's sense: an unordered
table is a relation (written ``{ }`` in the paper's figures), an ordered table
is a list (written ``< >``).  Attributes are either atomic or themselves
table-valued, to arbitrary depth — this is exactly the generalization that
gives up first normal form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from repro.errors import SchemaError
from repro.model.types import AtomicType

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-/]*\Z")


def _check_identifier(name: str, what: str) -> str:
    if not isinstance(name, str) or not _IDENTIFIER_RE.match(name):
        raise SchemaError(f"invalid {what} name: {name!r}")
    return name


@dataclass(frozen=True)
class AttributeSchema:
    """One attribute of a table: atomic, or table-valued (nested)."""

    name: str
    atomic_type: Optional[AtomicType] = None
    table: Optional["TableSchema"] = None

    def __post_init__(self) -> None:
        _check_identifier(self.name, "attribute")
        if (self.atomic_type is None) == (self.table is None):
            raise SchemaError(
                f"attribute {self.name!r} must be either atomic or table-valued"
            )

    @property
    def is_atomic(self) -> bool:
        return self.atomic_type is not None

    @property
    def is_table(self) -> bool:
        return self.table is not None

    def describe(self) -> str:
        """Human-readable one-line type description."""
        if self.is_atomic:
            assert self.atomic_type is not None
            return f"{self.name} {self.atomic_type.value}"
        assert self.table is not None
        kind = "LIST" if self.table.ordered else "TABLE"
        inner = ", ".join(a.describe() for a in self.table.attributes)
        return f"{self.name} {kind} OF ({inner})"


@dataclass(frozen=True)
class TableSchema:
    """Schema of an (extended NF2) table.

    ``ordered=False`` is a relation (set semantics), ``ordered=True`` a list
    (sequence semantics).  Flat 1NF tables are the special case where every
    attribute is atomic.
    """

    name: str
    attributes: tuple[AttributeSchema, ...]
    ordered: bool = False

    def __post_init__(self) -> None:
        _check_identifier(self.name, "table")
        if not self.attributes:
            raise SchemaError(f"table {self.name!r} must have at least one attribute")
        seen: set[str] = set()
        for attr in self.attributes:
            if attr.name in seen:
                raise SchemaError(
                    f"duplicate attribute {attr.name!r} in table {self.name!r}"
                )
            seen.add(attr.name)

    # -- lookup ------------------------------------------------------------

    def attribute(self, name: str) -> AttributeSchema:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"table {self.name!r} has no attribute {name!r}")

    def has_attribute(self, name: str) -> bool:
        return any(attr.name == name for attr in self.attributes)

    # cached: storage decode and tuple validation ask for these once per
    # (sub)object, and a frozen schema never changes them
    @cached_property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(attr.name for attr in self.attributes)

    @cached_property
    def atomic_attributes(self) -> tuple[AttributeSchema, ...]:
        return tuple(attr for attr in self.attributes if attr.is_atomic)

    @cached_property
    def table_attributes(self) -> tuple[AttributeSchema, ...]:
        return tuple(attr for attr in self.attributes if attr.is_table)

    # -- structure ---------------------------------------------------------

    @property
    def is_flat(self) -> bool:
        """True iff this is a 1NF table (all attributes atomic)."""
        return not self.table_attributes

    def depth(self) -> int:
        """Nesting depth: a flat table has depth 1."""
        if self.is_flat:
            return 1
        return 1 + max(attr.table.depth() for attr in self.table_attributes)  # type: ignore[union-attr]

    def walk(self, prefix: tuple[str, ...] = ()) -> Iterator[tuple[tuple[str, ...], AttributeSchema]]:
        """Yield ``(path, attribute)`` pairs for every attribute at every
        nesting level, in document order.  ``path`` names the attribute
        relative to this schema, e.g. ``('PROJECTS', 'MEMBERS', 'EMPNO')``.
        """
        for attr in self.attributes:
            path = prefix + (attr.name,)
            yield path, attr
            if attr.is_table:
                assert attr.table is not None
                yield from attr.table.walk(path)

    def resolve_path(self, path: Sequence[str]) -> AttributeSchema:
        """Resolve a dotted attribute path like ``('PROJECTS', 'PNO')``."""
        if not path:
            raise SchemaError("empty attribute path")
        attr = self.attribute(path[0])
        if len(path) == 1:
            return attr
        if not attr.is_table:
            raise SchemaError(
                f"attribute {path[0]!r} of {self.name!r} is atomic; "
                f"cannot descend into {'.'.join(path[1:])!r}"
            )
        assert attr.table is not None
        return attr.table.resolve_path(path[1:])

    def subtable_paths(self) -> list[tuple[str, ...]]:
        """Paths of every table-valued attribute, at every level."""
        return [path for path, attr in self.walk() if attr.is_table]

    def describe(self) -> str:
        kind = "LIST" if self.ordered else "TABLE"
        inner = ", ".join(a.describe() for a in self.attributes)
        return f"{kind} {self.name} ({inner})"

    def rename(self, name: str) -> "TableSchema":
        return TableSchema(name=name, attributes=self.attributes, ordered=self.ordered)


# --------------------------------------------------------------------------
# Convenience builders
# --------------------------------------------------------------------------


def atomic(name: str, type_: Union[AtomicType, str]) -> AttributeSchema:
    """Build an atomic attribute: ``atomic('DNO', 'INT')``."""
    if isinstance(type_, str):
        type_ = AtomicType.parse(type_)
    return AttributeSchema(name=name, atomic_type=type_)


def table(
    name: str,
    *attributes: AttributeSchema,
    ordered: bool = False,
) -> TableSchema:
    """Build a table schema: ``table('EQUIP', atomic('QU','INT'), ...)``."""
    return TableSchema(name=name, attributes=tuple(attributes), ordered=ordered)


def list_of(name: str, *attributes: AttributeSchema) -> TableSchema:
    """Build an ordered table (list) schema."""
    return table(name, *attributes, ordered=True)


def nested(name: str, schema: TableSchema) -> AttributeSchema:
    """Wrap a table schema as a table-valued attribute.

    The attribute takes its name from *name*; the nested schema is renamed to
    match so that the attribute name and its table name always agree (as in
    the paper, where the subtable PROJECTS is the value of the attribute
    PROJECTS).
    """
    return AttributeSchema(name=name, table=schema.rename(name))
