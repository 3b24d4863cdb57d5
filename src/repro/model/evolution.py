"""Schema evolution: add / drop / rename attributes at any nesting level.

"Handling of schema changes" is on the paper's future-research list
(Section 5); this module provides the schema- and value-level
transformations, and :meth:`repro.database.Database.alter_table` applies
them by rewriting the stored objects (offline migration — adequate for a
single-user prototype).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import SchemaError
from repro.model.schema import AttributeSchema, TableSchema

AttrPath = Sequence[str]


def _rebuild(
    schema: TableSchema, prefix: AttrPath, transform
) -> TableSchema:
    """Apply *transform* to the subtable schema at *prefix* (an empty
    prefix addresses the top level)."""
    if not prefix:
        return transform(schema)
    head, rest = prefix[0], prefix[1:]
    attributes = []
    found = False
    for attr in schema.attributes:
        if attr.name == head:
            if not attr.is_table:
                raise SchemaError(
                    f"{head!r} is atomic; cannot descend into it"
                )
            assert attr.table is not None
            found = True
            attributes.append(
                AttributeSchema(name=attr.name, table=_rebuild(attr.table, rest, transform))
            )
        else:
            attributes.append(attr)
    if not found:
        raise SchemaError(f"table {schema.name!r} has no attribute {head!r}")
    return TableSchema(name=schema.name, attributes=tuple(attributes), ordered=schema.ordered)


def add_attribute(
    schema: TableSchema, prefix: AttrPath, new_attr: AttributeSchema
) -> TableSchema:
    """A new attribute appended to the (sub)table at *prefix*."""

    def transform(target: TableSchema) -> TableSchema:
        if target.has_attribute(new_attr.name):
            raise SchemaError(
                f"table {target.name!r} already has attribute {new_attr.name!r}"
            )
        return TableSchema(
            name=target.name,
            attributes=target.attributes + (new_attr,),
            ordered=target.ordered,
        )

    return _rebuild(schema, prefix, transform)


def drop_attribute(schema: TableSchema, path: AttrPath) -> TableSchema:
    """Remove the attribute addressed by *path* (prefix + name)."""
    if not path:
        raise SchemaError("empty attribute path")
    prefix, name = tuple(path[:-1]), path[-1]

    def transform(target: TableSchema) -> TableSchema:
        target.attribute(name)  # raises if absent
        remaining = tuple(a for a in target.attributes if a.name != name)
        if not remaining:
            raise SchemaError(
                f"cannot drop the last attribute of {target.name!r}"
            )
        return TableSchema(
            name=target.name, attributes=remaining, ordered=target.ordered
        )

    dropped = _rebuild(schema, prefix, transform)
    if dropped.is_flat and not schema.is_flat:
        # a table keeps its store: complex objects do not become heap rows
        raise SchemaError(
            f"dropping {'.'.join(path)!r} would make nested table "
            f"{schema.name!r} flat"
        )
    return dropped


def rename_attribute(
    schema: TableSchema, path: AttrPath, new_name: str
) -> TableSchema:
    """Rename the attribute addressed by *path*."""
    if not path:
        raise SchemaError("empty attribute path")
    prefix, old_name = tuple(path[:-1]), path[-1]

    def transform(target: TableSchema) -> TableSchema:
        if target.has_attribute(new_name):
            raise SchemaError(
                f"table {target.name!r} already has attribute {new_name!r}"
            )
        attributes = []
        for attr in target.attributes:
            if attr.name != old_name:
                attributes.append(attr)
            elif attr.is_atomic:
                attributes.append(
                    AttributeSchema(name=new_name, atomic_type=attr.atomic_type)
                )
            else:
                assert attr.table is not None
                attributes.append(
                    AttributeSchema(name=new_name, table=attr.table.rename(new_name))
                )
        target.attribute(old_name)  # raises if absent
        return TableSchema(
            name=target.name, attributes=tuple(attributes), ordered=target.ordered
        )

    return _rebuild(schema, prefix, transform)


# ---------------------------------------------------------------------------
# value migration (plain nested data)
# ---------------------------------------------------------------------------


def migrate_row(row: dict, prefix: AttrPath, mutate) -> dict:
    """Apply *mutate* (dict -> dict) to every (sub)row at *prefix*."""
    if not prefix:
        return mutate(dict(row))
    head, rest = prefix[0], prefix[1:]
    out = dict(row)
    out[head] = [migrate_row(child, rest, mutate) for child in row[head]]
    return out


def add_value(row: dict, prefix: AttrPath, name: str, default: Any = None) -> dict:
    return migrate_row(row, prefix, lambda r: {**r, name: default})


def drop_value(row: dict, path: AttrPath) -> dict:
    prefix, name = tuple(path[:-1]), path[-1]

    def mutate(r: dict) -> dict:
        r.pop(name, None)
        return r

    return migrate_row(row, prefix, mutate)


def rename_value(row: dict, path: AttrPath, new_name: str) -> dict:
    prefix, old_name = tuple(path[:-1]), path[-1]

    def mutate(r: dict) -> dict:
        r[new_name] = r.pop(old_name)
        return r

    return migrate_row(row, prefix, mutate)
