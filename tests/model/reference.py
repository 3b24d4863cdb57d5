"""A plain-Python reference evaluator: the semantics the engine is tested
against.

It evaluates a query by the paper's loop model (Section 3, Example 2) in
the most direct way there is.  Every stored range is a full scan through
``db.iterate_table(name, asof)``, every binding gets its own copy of the
environment, and every sub-SELECT is bound again where it runs.  It uses
no planner, index, settled conjunct, lazy decode or columnar batch, so an
answer the engine computes through any of those must equal this one.

What a comparison, a masked search, an aggregate or a sort key *means*
comes from ``repro.query.executor`` (``compare``, ``masked_match``,
``_aggregate``, ``_sortable``, ``_unwrap_single_attribute``,
``_retag_table``): one definition, shared by the engine and this model.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterator, Union

from repro.errors import ExecutionError
from repro.model.values import TableValue, TupleValue
from repro.query import ast
from repro.query.binder import Binder, Scope
from repro.query.executor import (
    _aggregate,
    _retag_table,
    _sortable,
    _unwrap_single_attribute,
    compare,
    masked_match,
)
from repro.query.parser import parse_query, parse_statement


def reference_query(db, query: Union[str, ast.Query]) -> TableValue:
    """The result of a SELECT (text or AST) on *db*."""
    if isinstance(query, str):
        query = parse_query(query)
    return Reference(db).select(query, {})


def assert_matches_reference(db, sql: str) -> TableValue:
    """Run *sql* on the engine and assert it answers what the reference
    does; returns the engine's result.  Row order is compared when the
    statement has ORDER BY and the engine scans (``use_access_paths``
    off): an index may deliver rows of equal sort keys, and unsorted
    rows, in another order.  Otherwise the top-level rows are compared
    as multisets."""
    query = parse_query(sql)
    expected = reference_query(db, query)
    actual = db.query(sql)
    assert actual.schema.attribute_names == expected.schema.attribute_names, sql
    rows = [row.canonical() for row in actual.rows]
    wanted = [row.canonical() for row in expected.rows]
    if query.order_by and not db.use_access_paths:
        assert rows == wanted, sql
    else:
        assert Counter(rows) == Counter(wanted), sql
    return actual


def reference_matches(db, sql: str) -> int:
    """How many rows of a root ``UPDATE``/``DELETE``'s table satisfy its
    WHERE clause — the count the statement must report.  DML is not
    bound, so neither is its WHERE here."""
    statement = parse_statement(sql)
    reference = Reference(db)
    where = statement.where
    return sum(
        1
        for row in reference.rows(ast.Source(table=statement.table), {})
        if where is None or reference.predicate(where, {statement.var: row})
    )


class Reference:
    def __init__(self, db):
        self.db = db
        self.binder = Binder(db)

    # -- queries -------------------------------------------------------------

    def select(self, query: ast.Query, env: dict) -> TableValue:
        scope = Scope()
        for var, row in env.items():
            scope.define(var, row.schema)
        schema = self.binder.bind_query(query, scope)
        rows: list[TupleValue] = []
        keys: list[tuple] = []
        for bound in self.bindings(query.ranges, env):
            if query.where is not None and not self.predicate(query.where, bound):
                continue
            rows.append(self.project(query, schema, bound))
            keys.append(
                tuple(
                    _sortable(_unwrap_single_attribute(self.expression(item.expr, bound)))
                    for item in query.order_by
                )
            )
        order = list(range(len(rows)))
        # a stable sort per key, the last key first
        for index in reversed(range(len(query.order_by))):
            order.sort(
                key=lambda i: keys[i][index],
                reverse=query.order_by[index].descending,
            )
        result = TableValue(schema)
        seen: set = set()
        for i in order:
            if query.distinct:
                key = rows[i].canonical()
                if key in seen:
                    continue
                seen.add(key)
            result.rows.append(rows[i])
        return result

    def bindings(self, ranges: tuple, env: dict) -> Iterator[dict]:
        if not ranges:
            yield env
            return
        head = ranges[0]
        for row in self.rows(head.source, env):
            yield from self.bindings(ranges[1:], {**env, head.var: row})

    def rows(self, source: ast.Source, env: dict) -> list:
        if source.table is not None:
            return list(self.db.iterate_table(source.table, source.asof))
        value = self.expression(source.path, env)
        if not isinstance(value, TableValue):
            raise ExecutionError(
                f"range source {source.path.dotted()!r} did not yield a table"
            )
        return list(value.rows)

    def project(self, query: ast.Query, schema, env: dict) -> TupleValue:
        if query.select_star:
            row = env[query.ranges[0].var]
            return TupleValue(
                schema, {name: row[name] for name in schema.attribute_names}
            )
        values: dict[str, Any] = {}
        for attr, item in zip(schema.attributes, query.select):
            value = self.expression(item.expr, env)
            if not isinstance(item.expr, ast.Query):
                value = _unwrap_single_attribute(value)
            if attr.is_table and isinstance(value, TableValue):
                value = _retag_table(value, attr.table)
            values[attr.name] = value
        return TupleValue(schema, values)

    # -- predicates ----------------------------------------------------------

    def predicate(self, pred: ast.Predicate, env: dict) -> bool:
        if isinstance(pred, ast.BoolOp):
            outcomes = (self.predicate(p, env) for p in pred.operands)
            return all(outcomes) if pred.op == "AND" else any(outcomes)
        if isinstance(pred, ast.Not):
            return not self.predicate(pred.operand, env)
        if isinstance(pred, ast.Quantifier):
            outcomes = (
                self.predicate(pred.body, {**env, pred.var: row})
                for row in self.rows(pred.source, env)
            )
            return any(outcomes) if pred.kind == "EXISTS" else all(outcomes)
        if isinstance(pred, ast.Contains):
            subject = _unwrap_single_attribute(self.expression(pred.subject, env))
            return masked_match(pred.pattern, subject) != pred.negated
        if isinstance(pred, ast.IsNull):
            subject = _unwrap_single_attribute(self.expression(pred.subject, env))
            return (subject is None) != pred.negated
        if isinstance(pred, ast.Comparison):
            return compare(
                pred.op,
                self.expression(pred.left, env),
                self.expression(pred.right, env),
            )
        raise ExecutionError(f"unhandled predicate {pred!r}")

    # -- expressions ---------------------------------------------------------

    def expression(self, expr: ast.Expression, env: dict) -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Path):
            values = self.path(expr, env, flatten=False)
            return values[0]
        if isinstance(expr, ast.Query):
            return self.select(expr, env)
        if isinstance(expr, ast.Aggregate):
            if isinstance(expr.argument, ast.Path):
                values = self.path(expr.argument, env, flatten=True)
            else:
                values = [self.expression(expr.argument, env)]
            return _aggregate(expr.function, values)
        raise ExecutionError(f"unhandled expression {expr!r}")

    def path(self, path: ast.Path, env: dict, flatten: bool) -> list:
        """The values *path* reaches, as a list.  Without *flatten* the
        list holds exactly one value (NULL once a step meets NULL); with
        it a name step applied to a table applies to each of its tuples,
        as aggregate arguments need."""
        if path.var not in env:
            raise ExecutionError(f"unbound tuple variable {path.var!r}")
        current: list = [env[path.var]]
        for step in path.steps:
            if step.name is not None:
                stepped: list = []
                for value in current:
                    if value is None:
                        if not flatten:
                            stepped.append(None)
                    elif flatten and isinstance(value, TableValue):
                        stepped.extend(row[step.name] for row in value.rows)
                    elif isinstance(value, TupleValue):
                        stepped.append(value[step.name])
                    else:
                        raise ExecutionError(
                            f"cannot select {step.name!r} in {path.dotted()!r}"
                        )
                current = stepped
            if step.subscript is not None:
                # 1-based; out of range (or NULL) yields NULL
                position = step.subscript
                current = [
                    value[position - 1]
                    if isinstance(value, TableValue) and 1 <= position <= len(value)
                    else None
                    for value in current
                ]
        return current
