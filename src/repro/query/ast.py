"""Abstract syntax trees for the NF2 query language."""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Literal:
    value: object  # int, float, str, bool, date, or None

    # ``1 == 1.0 == True`` in Python, but the three literals bind to INT,
    # FLOAT and BOOL: the value's type is part of a statement's identity
    # (the compiled-plan cache is keyed by the AST)
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return type(self.value) is type(other.value) and self.value == other.value

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))


@dataclass(frozen=True)
class PathStep:
    """One step of a path: an attribute name, optionally subscripted.

    ``subscript`` is the *1-based* list index of the paper's
    ``x.AUTHORS[1]`` notation (may apply to the variable itself, via a
    leading step with ``name=None``).
    """

    name: Optional[str]
    subscript: Optional[int] = None


@dataclass(frozen=True)
class Path:
    """``var.attr1[i].attr2...`` — a tuple-variable rooted path."""

    var: str
    steps: tuple[PathStep, ...] = ()

    def dotted(self) -> str:
        parts = [self.var]
        for step in self.steps:
            if step.name is not None:
                parts.append(step.name)
            if step.subscript is not None:
                parts[-1] += f"[{step.subscript}]"
        return ".".join(parts)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.steps if s.name is not None)

    @property
    def has_subscript(self) -> bool:
        return any(s.subscript is not None for s in self.steps)


@dataclass(frozen=True)
class Comparison:
    op: str  # '=', '<>', '<', '<=', '>', '>='
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Contains:
    """``expr CONTAINS 'pattern'`` — masked text search with ``*``/``?``."""

    subject: "Expression"
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class IsNull:
    subject: "Expression"
    negated: bool = False


@dataclass(frozen=True)
class BoolOp:
    op: str  # 'AND' | 'OR'
    operands: tuple["Predicate", ...]


@dataclass(frozen=True)
class Not:
    operand: "Predicate"


@dataclass(frozen=True)
class Quantifier:
    """``EXISTS v IN source: body`` / ``ALL v IN source: body``."""

    kind: str  # 'EXISTS' | 'ALL'
    var: str
    source: "Source"
    body: "Predicate"


@dataclass(frozen=True)
class Aggregate:
    """``COUNT(x.PROJECTS)``, ``SUM(x.EQUIP.QU)``, ``MAX(x.PROJECTS.MEMBERS.EMPNO)``.

    The argument path may traverse any number of subtable levels; values
    are flattened across them.  ``COUNT`` also accepts a plain table
    argument (counting its tuples) or a subquery.
    """

    function: str  # 'COUNT' | 'SUM' | 'AVG' | 'MIN' | 'MAX'
    argument: "Expression"


Predicate = Union[Comparison, Contains, IsNull, BoolOp, Not, Quantifier]
Expression = Union[Literal, Path, "Query", Aggregate]


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Source:
    """The right-hand side of ``var IN ...``: either a stored table name or
    a path into an already-bound variable; optionally time-travelled."""

    table: Optional[str] = None
    path: Optional[Path] = None
    asof: Optional[datetime.date] = None

    def describe(self) -> str:
        base = self.table if self.table is not None else self.path.dotted()  # type: ignore[union-attr]
        if self.asof is not None:
            return f"{base} ASOF {self.asof.isoformat()}"
        return base


@dataclass(frozen=True)
class Range:
    """``var IN source`` in a FROM clause."""

    var: str
    source: Source


@dataclass(frozen=True)
class SelectItem:
    """One output attribute.

    * plain expression: name derived from the path's last attribute (or
      ``AS`` alias);
    * ``NAME = ( subquery )``: a table-valued output attribute (the
      paper's mechanism for describing nested result structure);
    * ``NAME = expr``: an explicitly renamed atomic attribute.
    """

    expr: Expression
    alias: Optional[str] = None

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, Path):
            names = self.expr.attribute_names
            return names[-1] if names else self.expr.var
        if isinstance(self.expr, Query):
            return "QUERY"
        return "EXPR"


@dataclass(frozen=True)
class OrderItem:
    expr: Expression
    descending: bool = False


@dataclass(frozen=True)
class Query:
    select: tuple[SelectItem, ...]  # empty tuple means SELECT *
    ranges: tuple[Range, ...]
    where: Optional[Predicate] = None
    select_star: bool = False
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()


# ---------------------------------------------------------------------------
# DML / DDL statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TupleLiteral:
    values: tuple["ValueLiteral", ...]


@dataclass(frozen=True)
class TableLiteral:
    rows: tuple[TupleLiteral, ...]
    ordered: bool


ValueLiteral = Union[Literal, TupleLiteral, TableLiteral]


@dataclass(frozen=True)
class InsertStatement:
    table: str
    rows: tuple[TupleLiteral, ...]


@dataclass(frozen=True)
class UpdateStatement:
    table: str
    var: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Optional[Predicate] = None


@dataclass(frozen=True)
class DeleteStatement:
    table: str
    var: str
    where: Optional[Predicate] = None


@dataclass(frozen=True)
class CreateTableStatement:
    ddl_text: str  # re-parsed by the model-layer DDL parser
    versioned: bool = False


@dataclass(frozen=True)
class DropTableStatement:
    table: str


@dataclass(frozen=True)
class CreateIndexStatement:
    name: str
    table: str
    attribute_path: tuple[str, ...]
    text: bool = False  # CREATE TEXT INDEX


@dataclass(frozen=True)
class DropIndexStatement:
    name: str


@dataclass(frozen=True)
class SubInsertStatement:
    """``INSERT INTO y.MEMBERS FROM x IN DEPARTMENTS, y IN x.PROJECTS
    WHERE ... VALUES (...)`` — insert subobjects into subtable instances
    selected by the FROM/WHERE bindings."""

    target: Path
    ranges: tuple[Range, ...]
    rows: tuple[TupleLiteral, ...]
    where: Optional[Predicate] = None


@dataclass(frozen=True)
class SubDeleteStatement:
    """``DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS
    WHERE ...`` — delete the subobjects the target variable ranges over."""

    var: str
    ranges: tuple[Range, ...]
    where: Optional[Predicate] = None


@dataclass(frozen=True)
class SubUpdateStatement:
    """``UPDATE z FROM ... SET FUNCTION = '...' WHERE ...`` — update
    atomic attributes of the subobjects the target variable ranges over."""

    var: str
    ranges: tuple[Range, ...]
    assignments: tuple[tuple[str, "Expression"], ...]
    where: Optional[Predicate] = None


@dataclass(frozen=True)
class AlterTableStatement:
    """ALTER TABLE <name> ADD <attr-def> | DROP ATTRIBUTE <name> |
    RENAME ATTRIBUTE <old> TO <new>.

    Attribute paths are dotted to address nested levels, e.g.
    ``ADD PROJECTS.PRIORITY INT``.
    """

    table: str
    action: str  # 'add' | 'drop' | 'rename'
    attribute_path: tuple[str, ...]
    #: for 'add': the DDL fragment of the new attribute (parsed by the
    #: model layer); for 'rename': the new name
    payload: Optional[str] = None


@dataclass(frozen=True)
class ExplainStatement:
    """``EXPLAIN [ANALYZE] <statement>``.

    Plain EXPLAIN describes the access plan without running the statement;
    EXPLAIN ANALYZE executes it under observability and reports actual
    cardinalities, phase timings, and engine/buffer counter deltas.
    """

    target: "Statement"
    analyze: bool = False


Statement = Union[
    "AlterTableStatement",
    "ExplainStatement",
    Query,
    InsertStatement,
    UpdateStatement,
    DeleteStatement,
    CreateTableStatement,
    DropTableStatement,
    CreateIndexStatement,
    DropIndexStatement,
]
