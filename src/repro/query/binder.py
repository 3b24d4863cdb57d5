"""Name and type resolution for NF2 queries.

The binder checks a parsed query against the catalog: every tuple variable
resolves, every path exists in its variable's schema, comparisons are
type-compatible, and the result schema (possibly nested, via sub-SELECTs in
the select list) is inferred.

The "loop" mental model of the paper (Section 3, Example 2) shows up here as
lexical scoping: each FROM range introduces a variable visible to all later
ranges, to the select list, and to the WHERE clause; quantifiers introduce
inner variables visible in their body.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Mapping, Optional, Protocol, Union

from repro.errors import BindError, SchemaError
from repro.model.schema import AttributeSchema, TableSchema, nested
from repro.model.types import AtomicType
from repro.query import ast


class SchemaProvider(Protocol):
    """What the binder needs from the catalog."""

    def table_schema(self, name: str) -> TableSchema:
        """Schema of a stored table; raises UnknownTableError otherwise."""
        ...

    def is_versioned(self, name: str) -> bool:
        ...


# -- value types -------------------------------------------------------------


@dataclass(frozen=True)
class AtomType:
    type: Optional[AtomicType]  # None for NULL literals (unifies with all)


@dataclass(frozen=True)
class TableType:
    schema: TableSchema


@dataclass(frozen=True)
class RowType:
    schema: TableSchema


ValueType = Union[AtomType, TableType, RowType]


def describe_type(value_type: ValueType) -> str:
    if isinstance(value_type, AtomType):
        return value_type.type.value if value_type.type else "NULL"
    if isinstance(value_type, TableType):
        kind = "LIST" if value_type.schema.ordered else "TABLE"
        return f"{kind}({value_type.schema.name})"
    return f"ROW({value_type.schema.name})"


# -- scopes -------------------------------------------------------------------


class Scope:
    """Lexically nested variable scope: var -> row schema."""

    def __init__(self, parent: Optional["Scope"] = None):
        self._parent = parent
        self._vars: dict[str, TableSchema] = {}

    def define(self, var: str, schema: TableSchema) -> None:
        if self.lookup(var) is not None:
            raise BindError(f"tuple variable {var!r} is already bound")
        self._vars[var] = schema

    def lookup(self, var: str) -> Optional[TableSchema]:
        if var in self._vars:
            return self._vars[var]
        if self._parent is not None:
            return self._parent.lookup(var)
        return None

    def child(self) -> "Scope":
        return Scope(self)


# -- binder ----------------------------------------------------------------------


class Binder:
    def __init__(self, provider: SchemaProvider):
        self._provider = provider

    # .. queries ..............................................................

    def bind_query(self, query: ast.Query, scope: Optional[Scope] = None) -> TableSchema:
        """Validate *query*; return its result schema."""
        scope = (scope or Scope()).child()
        source_types: list[TableType] = []
        for range_ in query.ranges:
            table_type = self.bind_source(range_.source, scope)
            scope.define(range_.var, table_type.schema)
            source_types.append(table_type)

        if query.where is not None:
            self.bind_predicate(query.where, scope)

        for order_item in query.order_by:
            key_type = _unwrap_row(self.bind_expression(order_item.expr, scope))
            if not isinstance(key_type, AtomType):
                raise BindError(
                    "ORDER BY needs atomic sort keys, got "
                    + describe_type(key_type)
                )

        if query.select_star:
            if len(query.ranges) != 1:
                raise BindError("SELECT * requires exactly one FROM range")
            base = source_types[0].schema
            return TableSchema(
                name="RESULT",
                attributes=base.attributes,
                ordered=base.ordered or bool(query.order_by),
            )

        attributes: list[AttributeSchema] = []
        seen: set[str] = set()
        for item in query.select:
            name = item.output_name()
            if name in seen:
                raise BindError(
                    f"duplicate output attribute {name!r}; disambiguate with AS"
                )
            seen.add(name)
            attributes.append(self.bind_select_item(item, name, scope))
        ordered = bool(query.order_by) or (
            len(query.ranges) == 1 and source_types[0].schema.ordered
        )
        return TableSchema(name="RESULT", attributes=tuple(attributes), ordered=ordered)

    def bind_select_item(
        self, item: ast.SelectItem, name: str, scope: Scope
    ) -> AttributeSchema:
        if isinstance(item.expr, ast.Query):
            inner = self.bind_query(item.expr, scope)
            return nested(name, inner)
        value_type = self.bind_expression(item.expr, scope)
        if isinstance(value_type, AtomType):
            if value_type.type is None:
                raise BindError(f"cannot infer a type for output attribute {name!r}")
            return AttributeSchema(name=name, atomic_type=value_type.type)
        if isinstance(value_type, TableType):
            return nested(name, value_type.schema)
        # RowType: allowed when it unwraps to a single atomic attribute
        row = value_type.schema
        if len(row.attributes) == 1 and row.attributes[0].is_atomic:
            return AttributeSchema(
                name=name, atomic_type=row.attributes[0].atomic_type
            )
        raise BindError(
            f"select item {name!r} yields a whole tuple of {row.name!r}; "
            "select its attributes instead"
        )

    # .. sources ................................................................

    def bind_source(self, source: ast.Source, scope: Scope) -> TableType:
        if source.table is not None:
            # a bare identifier: a stored table, unless it shadows a variable
            if scope.lookup(source.table) is not None:
                raise BindError(
                    f"{source.table!r} is a tuple variable; ranges iterate "
                    "tables, not tuples"
                )
            schema = self._provider.table_schema(source.table)
            if source.asof is not None and not self._provider.is_versioned(source.table):
                raise BindError(f"table {source.table!r} is not versioned (ASOF)")
            return TableType(schema)
        assert source.path is not None
        if source.asof is not None:
            raise BindError("ASOF applies to stored tables, not to paths")
        value_type = self.bind_path(source.path, scope)
        if not isinstance(value_type, TableType):
            raise BindError(
                f"range source {source.path.dotted()!r} is not table-valued"
            )
        return value_type

    # .. predicates ...............................................................

    def bind_predicate(self, predicate: ast.Predicate, scope: Scope) -> None:
        if isinstance(predicate, ast.BoolOp):
            for operand in predicate.operands:
                self.bind_predicate(operand, scope)
            return
        if isinstance(predicate, ast.Not):
            self.bind_predicate(predicate.operand, scope)
            return
        if isinstance(predicate, ast.Quantifier):
            inner = scope.child()
            table_type = self.bind_source(predicate.source, inner)
            inner.define(predicate.var, table_type.schema)
            self.bind_predicate(predicate.body, inner)
            return
        if isinstance(predicate, ast.Contains):
            subject_type = self.bind_expression(predicate.subject, scope)
            if not (
                isinstance(subject_type, AtomType)
                and subject_type.type in (AtomicType.STRING, None)
            ):
                raise BindError(
                    "CONTAINS applies to STRING attributes, got "
                    + describe_type(subject_type)
                )
            return
        if isinstance(predicate, ast.IsNull):
            self.bind_expression(predicate.subject, scope)
            return
        if isinstance(predicate, ast.Comparison):
            left = self.bind_expression(predicate.left, scope)
            right = self.bind_expression(predicate.right, scope)
            self._check_comparable(predicate.op, left, right)
            return
        raise BindError(f"unhandled predicate {predicate!r}")  # pragma: no cover

    def _check_comparable(self, op: str, left: ValueType, right: ValueType) -> None:
        left = _unwrap_row(left)
        right = _unwrap_row(right)
        if isinstance(left, AtomType) and isinstance(right, AtomType):
            if left.type is None or right.type is None:
                return
            if left.type == right.type:
                return
            numeric = {AtomicType.INT, AtomicType.FLOAT}
            if left.type in numeric and right.type in numeric:
                return
            raise BindError(
                f"cannot compare {describe_type(left)} with {describe_type(right)}"
            )
        if isinstance(left, TableType) and isinstance(right, TableType):
            if op not in ("=", "<>"):
                raise BindError("tables compare with = and <> only")
            return
        raise BindError(
            f"cannot compare {describe_type(left)} with {describe_type(right)}"
        )

    # .. expressions .................................................................

    def bind_expression(self, expr: ast.Expression, scope: Scope) -> ValueType:
        if isinstance(expr, ast.Literal):
            return AtomType(_literal_type(expr.value))
        if isinstance(expr, ast.Path):
            return self.bind_path(expr, scope)
        if isinstance(expr, ast.Query):
            return TableType(self.bind_query(expr, scope))
        if isinstance(expr, ast.Aggregate):
            return self.bind_aggregate(expr, scope)
        raise BindError(f"unhandled expression {expr!r}")  # pragma: no cover

    def bind_aggregate(self, expr: ast.Aggregate, scope: Scope) -> AtomType:
        """Aggregates flatten their argument across subtable levels."""
        if isinstance(expr.argument, ast.Path):
            arg_type = self.bind_path(expr.argument, scope, multi=True)
        else:
            arg_type = self.bind_expression(expr.argument, scope)
        if expr.function == "COUNT":
            return AtomType(AtomicType.INT)
        if isinstance(arg_type, TableType):
            attrs = arg_type.schema.attributes
            if len(attrs) == 1 and attrs[0].is_atomic:
                arg_type = AtomType(attrs[0].atomic_type)
            else:
                raise BindError(
                    f"{expr.function} needs atomic values; "
                    f"{arg_type.schema.name!r} has several attributes"
                )
        arg_type = _unwrap_row(arg_type)
        if not isinstance(arg_type, AtomType):
            raise BindError(
                f"{expr.function} needs atomic values, got "
                + describe_type(arg_type)
            )
        numeric = (AtomicType.INT, AtomicType.FLOAT, None)
        if expr.function in ("SUM", "AVG") and arg_type.type not in numeric:
            raise BindError(
                f"{expr.function} needs numeric values, got "
                + describe_type(arg_type)
            )
        if expr.function == "AVG":
            return AtomType(AtomicType.FLOAT)
        return arg_type

    def bind_path(self, path: ast.Path, scope: Scope, multi: bool = False) -> ValueType:
        """Resolve a path.  With ``multi=True`` (aggregate arguments) a
        name step may descend from a table into its elements' attributes,
        flattening — e.g. ``SUM(x.PROJECTS.MEMBERS.EMPNO)``."""
        schema = scope.lookup(path.var)
        if schema is None:
            raise BindError(f"unknown tuple variable {path.var!r}")
        current: ValueType = RowType(schema)
        for step in path.steps:
            if step.name is not None:
                if multi and isinstance(current, TableType):
                    current = RowType(current.schema)
                if not isinstance(current, RowType):
                    raise BindError(
                        f"cannot select attribute {step.name!r} of "
                        f"{describe_type(current)} in {path.dotted()!r}"
                    )
                try:
                    attr = current.schema.attribute(step.name)
                except SchemaError as exc:
                    raise BindError(str(exc)) from exc
                if attr.is_atomic:
                    current = AtomType(attr.atomic_type)
                else:
                    assert attr.table is not None
                    current = TableType(attr.table)
            if step.subscript is not None:
                if not isinstance(current, TableType):
                    raise BindError(
                        f"subscript applies to table-valued attributes, not "
                        f"{describe_type(current)} in {path.dotted()!r}"
                    )
                if not current.schema.ordered:
                    raise BindError(
                        f"subscript needs an ordered table (list); "
                        f"{current.schema.name!r} is unordered"
                    )
                current = RowType(current.schema)
        return current


def _unwrap_row(value_type: ValueType) -> ValueType:
    """A single-attribute row compares as its attribute (x.AUTHORS[1] =
    'Jones')."""
    if isinstance(value_type, RowType):
        attrs = value_type.schema.attributes
        if len(attrs) == 1 and attrs[0].is_atomic:
            return AtomType(attrs[0].atomic_type)
    return value_type


def _literal_type(value: object) -> Optional[AtomicType]:
    if value is None:
        return None
    if isinstance(value, bool):
        return AtomicType.BOOL
    if isinstance(value, int):
        return AtomicType.INT
    if isinstance(value, float):
        return AtomicType.FLOAT
    if isinstance(value, str):
        return AtomicType.STRING
    if isinstance(value, datetime.date):
        return AtomicType.DATE
    raise BindError(f"unsupported literal {value!r}")
