"""Evaluation of NF2 queries.

Execution follows the paper's mental model exactly (Section 3, Example 2):
each FROM range is a loop over the tuples of its source; an inner range
whose source is a path (``y IN x.PROJECTS``) re-binds for every binding of
the outer variable; sub-SELECTs in the select list are correlated queries
producing table-valued output attributes.

NULL semantics are two-valued: a comparison involving NULL is false
(``IS NULL`` exists for explicit tests).  ``ALL`` over an empty subtable is
vacuously true, ``EXISTS`` false.
"""

from __future__ import annotations

import datetime
import functools
import re
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Protocol

from repro.errors import ExecutionError
from repro.model.schema import TableSchema
from repro.model.values import TableValue, TupleValue
from repro.obs import METRICS, TRACER
from repro.query import ast
from repro.query.binder import Binder, Scope, SchemaProvider


class QueryProfile:
    """Per-statement execution accounting.

    Created only while observability is on (``METRICS`` or ``TRACER``
    enabled) — when off, the executor's hot loops pay a single ``is not
    None`` check per row and allocate nothing.
    """

    __slots__ = ("rows_scanned", "rows_emitted", "predicate_evals", "join_lookups")

    def __init__(self) -> None:
        #: rows pulled from each range variable's source, keyed by var name
        self.rows_scanned: dict[str, int] = {}
        self.rows_emitted = 0
        self.predicate_evals = 0
        self.join_lookups = 0

    @property
    def total_scanned(self) -> int:
        return sum(self.rows_scanned.values())

    def snapshot(self) -> dict:
        return {
            "rows_scanned": dict(self.rows_scanned),
            "rows_emitted": self.rows_emitted,
            "predicate_evals": self.predicate_evals,
            "join_lookups": self.join_lookups,
        }


@dataclass
class ExecReport:
    """How the last :meth:`Executor.run` executed — surfaced on the
    EXPLAIN ANALYZE ``exec:`` line (see docs/EXECUTOR.md)."""

    mode: str  # "compiled" | "interpreted"
    cache: Optional[str] = None  # "hit" | "miss" | None (interpreted)
    settled_conjuncts: int = 0  # WHERE conjuncts skipped (index-settled)
    columnar_chunks: int = 0  # columnar batches consumed


class TableProvider(SchemaProvider, Protocol):
    """What both engines need from the database (``Database`` is the one
    provider; every member is read at call time)."""

    #: ``"compiled"`` or ``"interpreted"``
    exec_mode: str
    #: bumped by DDL: cached bindings and compiled plans are stale
    schema_epoch: int
    #: the planner's report on the last planned range, or None (a scan)
    last_plan: Any

    def iterate_table(
        self, name: str, asof: Optional[datetime.date] = None
    ) -> Iterable[TupleValue]:
        ...

    def iterate_table_for_query(
        self,
        name: str,
        asof: Optional[datetime.date],
        query: ast.Query,
        var: str,
    ) -> Iterable[TupleValue]:
        """Like :meth:`iterate_table`, but the provider may use the query's
        WHERE clause to choose an access path (index scan instead of a full
        scan) and publishes ``last_plan`` before the first row."""
        ...

    def lookup_rows(
        self, name: str, attribute: str, value: Any
    ) -> Optional[Iterable[TupleValue]]:
        """Rows whose top-level *attribute* equals *value* through an
        index, or ``None`` (no suitable index: the caller scans)."""
        ...

    def scan_chunks(
        self, name: str, needed: Optional[frozenset] = None
    ) -> Optional[Iterable[tuple[int, dict[str, list]]]]:
        """Columnar batches of a flat table, or ``None`` (row path)."""
        ...


#: compiled statement plans kept per executor (hot statements re-run
#: constantly on a server; the cache is bounded, LRU-evicted)
_COMPILED_CACHE_LIMIT = 256
#: bound schemas kept before LRU eviction kicks in
_SCHEMA_CACHE_LIMIT = 1024


class Executor:
    def __init__(self, provider: TableProvider):
        self._provider = provider
        self._binder = Binder(provider)
        # id(query) -> (query, schema, schema epoch); the strong reference
        # to the query node prevents id() reuse after garbage collection.
        # LRU order: hot entries move to the back, eviction pops the front.
        self._schema_cache: OrderedDict[
            int, tuple[ast.Query, TableSchema, int]
        ] = OrderedDict()
        # statement fingerprint (the hashable Query AST) -> (schema epoch,
        # CompiledQuery)
        self._compiled_cache: OrderedDict[ast.Query, tuple[int, Any]] = (
            OrderedDict()
        )
        #: the profile of the most recent profiled run (None if the last
        #: run happened with observability off)
        self.last_profile: Optional[QueryProfile] = None
        #: how the most recent run executed (mode, cache hit, settled
        #: conjuncts, columnar chunks) — feeds EXPLAIN ANALYZE
        self.exec_report: Optional[ExecReport] = None
        self._profile: Optional[QueryProfile] = None
        self._cache_state: Optional[str] = None

    # -- public ------------------------------------------------------------------

    def run(self, query: ast.Query) -> TableValue:
        """Execute a query; returns its (possibly nested) result table.

        When the provider's ``exec_mode`` is ``"compiled"`` the statement
        is compiled once into Python closures (keyed by its AST
        fingerprint — see :mod:`repro.query.compile`) and re-executed
        from the cache; otherwise the interpreted AST walker runs."""
        compiled = None
        self._cache_state = None
        with TRACER.span("bind"):
            if self._provider.exec_mode == "compiled":
                compiled = self._compiled(query)
            schema = (
                compiled.schema
                if compiled is not None
                else self._result_schema(query, Scope())
            )
        profile = QueryProfile() if (METRICS.enabled or TRACER.enabled) else None
        self._profile = profile
        report = ExecReport(
            mode="compiled" if compiled is not None else "interpreted",
            cache=self._cache_state,
        )
        self.exec_report = report
        try:
            with TRACER.span("execute") as span:
                if compiled is not None:
                    result = compiled.execute(self, {}, is_top=True)
                else:
                    result = self._execute(query, schema, env={}, is_top=True)
                if span is not None and profile is not None:
                    span.annotate(**profile.snapshot())
        finally:
            self._profile = None
        if profile is not None:
            self.last_profile = profile
            if METRICS.enabled:
                METRICS.inc("query.rows_scanned", profile.total_scanned)
                METRICS.inc("query.rows_emitted", profile.rows_emitted)
                METRICS.inc("query.predicate_evals", profile.predicate_evals)
                METRICS.inc("query.join_lookups", profile.join_lookups)
                if compiled is not None:
                    METRICS.inc("exec.compiled_evals", profile.predicate_evals)
                if report.settled_conjuncts:
                    METRICS.inc("exec.settled_conjuncts", report.settled_conjuncts)
                if report.columnar_chunks:
                    METRICS.inc("exec.columnar_chunks", report.columnar_chunks)
        return result

    def _compiled(self, query: ast.Query) -> Any:
        """The statement's compiled plan, from the fingerprint cache when
        its schema epoch still matches."""
        from repro.query.compile import compile_query

        epoch = self._provider.schema_epoch
        cache = self._compiled_cache
        try:
            entry = cache.get(query)
        except TypeError:  # unhashable literal somewhere in the AST
            return compile_query(self, query)
        if entry is not None and entry[0] == epoch:
            cache.move_to_end(query)
            self._cache_state = "hit"
            if METRICS.enabled:
                METRICS.inc("exec.compile_hits")
            return entry[1]
        plan = compile_query(self, query)
        self._cache_state = "miss"
        if METRICS.enabled:
            METRICS.inc("exec.compiles")
        cache[query] = (epoch, plan)
        cache.move_to_end(query)
        while len(cache) > _COMPILED_CACHE_LIMIT:
            cache.popitem(last=False)
        return plan

    # -- schemas -----------------------------------------------------------------

    def _result_schema(self, query: ast.Query, scope: Scope) -> TableSchema:
        # parse-cached statements reuse AST objects across executions, so
        # a bound schema is only valid while the schema epoch stands
        epoch = self._provider.schema_epoch
        cache = self._schema_cache
        entry = cache.get(id(query))
        if entry is not None and entry[0] is query and entry[2] == epoch:
            cache.move_to_end(id(query))
            return entry[1]
        schema = self._binder.bind_query(query, scope)
        cache[id(query)] = (query, schema, epoch)
        if len(cache) > _SCHEMA_CACHE_LIMIT:
            # evict the least-recently-used binding only — a wholesale
            # clear() here caused a full rebind storm on mixed workloads
            cache.popitem(last=False)
            if METRICS.enabled:
                METRICS.inc("exec.schema_cache_evictions")
        return schema

    # -- query evaluation -----------------------------------------------------------

    def _execute(
        self,
        query: ast.Query,
        schema: TableSchema,
        env: dict[str, TupleValue],
        is_top: bool = False,
    ) -> TableValue:
        result = TableValue(schema)
        sort_keys: list[tuple] = []
        ranges = list(query.ranges)
        prefetched: Optional[Iterable[TupleValue]] = None
        sort_elided = False
        if is_top and ranges:
            # The top-level first range is the one planned through
            # :meth:`TableProvider.iterate_table_for_query`.  The provider
            # plans *eagerly* — ``last_plan`` (including its
            # ``sort_elided`` flag) is published when the iterator is
            # created, before any row streams out — so elision is decided
            # once, here, instead of per row in ``emit`` plus an
            # after-the-fact ``last_plan`` read.
            head = ranges[0]
            prefetched = self._iterate_source(
                head.source,
                env,
                head.var,
                planner_query=query,
                where=query.where,
            )
            if query.order_by:
                plan = self._provider.last_plan
                sort_elided = plan is not None and plan.sort_elided
        collect_keys = bool(query.order_by) and not sort_elided

        def emit(bound_env: dict[str, TupleValue]) -> None:
            profile = self._profile
            if query.where is not None:
                if profile is not None:
                    profile.predicate_evals += 1
                if not self._eval_predicate(query.where, bound_env):
                    return
            if profile is not None and is_top:
                profile.rows_emitted += 1
            result.rows.append(self._project(query, schema, bound_env))
            if collect_keys:
                sort_keys.append(
                    tuple(
                        _sortable(
                            _unwrap_single_attribute(
                                self._eval_expression(item.expr, bound_env)
                            )
                        )
                        for item in query.order_by
                    )
                )

        self._loop_ranges(query, ranges, env, emit, is_top, prefetched)
        if query.order_by:
            if sort_elided:
                # The access path already emitted candidates in index-key
                # order matching the (single, ascending) ORDER BY — the
                # final sort is skipped (Volcano-style interesting-order
                # pushdown).
                if METRICS.enabled:
                    METRICS.inc("query.sorts_elided")
            else:
                pairs = list(zip(result.rows, sort_keys))
                # stable multi-key sort: apply keys right-to-left
                for index in range(len(query.order_by) - 1, -1, -1):
                    pairs.sort(
                        key=lambda pair: pair[1][index],
                        reverse=query.order_by[index].descending,
                    )
                result.rows = [row for row, _keys in pairs]
        if query.distinct:
            seen: set = set()
            unique = []
            for row in result.rows:
                key = row.canonical()
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            result.rows = unique
        return result

    def _loop_ranges(
        self,
        query: ast.Query,
        ranges: list[ast.Range],
        env: dict[str, TupleValue],
        emit: Callable[[dict[str, TupleValue]], None],
        is_top: bool,
        prefetched: Optional[Iterable[TupleValue]] = None,
    ) -> None:
        if not ranges:
            emit(env)
            return
        head, tail = ranges[0], ranges[1:]
        if prefetched is not None:
            source_rows = prefetched
        else:
            source_rows = self._iterate_source(
                head.source,
                env,
                head.var,
                planner_query=None,
                where=query.where,
            )
        profile = self._profile
        for row in source_rows:
            if profile is not None:
                profile.rows_scanned[head.var] = (
                    profile.rows_scanned.get(head.var, 0) + 1
                )
            inner = dict(env)
            inner[head.var] = row
            self._loop_ranges(query, tail, inner, emit, is_top)

    def _iterate_source(
        self,
        source: ast.Source,
        env: dict[str, TupleValue],
        var: str,
        planner_query: Optional[ast.Query] = None,
        where: Optional[ast.Predicate] = None,
    ) -> Iterable[TupleValue]:
        if source.table is not None:
            if planner_query is not None:
                return self._provider.iterate_table_for_query(
                    source.table, source.asof, planner_query, var
                )
            if source.asof is None and where is not None:
                # index-nested-loop join: an inner range whose predicate
                # ties one of its attributes to already-bound variables can
                # be fetched through an index instead of scanned
                rows = self._join_lookup(source.table, where, var, env)
                if rows is not None:
                    return rows
            return self._provider.iterate_table(source.table, source.asof)
        assert source.path is not None
        value = self._eval_expression(source.path, env)
        if not isinstance(value, TableValue):
            raise ExecutionError(
                f"range source {source.path.dotted()!r} did not yield a table"
            )
        return value.rows

    def _join_lookup(
        self,
        table: str,
        where: ast.Predicate,
        var: str,
        env: dict[str, TupleValue],
    ) -> Optional[Iterable[TupleValue]]:
        """Find an equality conjunct ``var.ATTR = <bound expression>`` and
        answer it through an index (System-R style index nested loops).
        The provider streams the matching rows (no materialized list)."""
        from repro.query.planner import join_conjuncts

        for attribute, theirs in join_conjuncts(where, var):
            if isinstance(theirs, ast.Literal):
                value = theirs.value
            elif theirs.var in env:
                value = _unwrap_single_attribute(
                    self._eval_expression(theirs, env)
                )
            else:
                continue
            if value is None or isinstance(value, (TableValue, TupleValue)):
                continue
            rows = self._provider.lookup_rows(table, attribute, value)
            if rows is not None:
                if self._profile is not None:
                    self._profile.join_lookups += 1
                return rows
        return None

    def _project(
        self, query: ast.Query, schema: TableSchema, env: dict[str, TupleValue]
    ) -> TupleValue:
        if query.select_star:
            row = env[query.ranges[0].var]
            return TupleValue(
                schema, {name: row[name] for name in schema.attribute_names}
            )
        values: dict[str, Any] = {}
        for attr, item in zip(schema.attributes, query.select):
            if isinstance(item.expr, ast.Query):
                assert attr.table is not None
                inner_schema = attr.table
                sub = self._execute(item.expr, inner_schema, env)
                values[attr.name] = sub
            else:
                value = self._eval_expression(item.expr, env)
                value = _unwrap_single_attribute(value)
                if attr.is_table and isinstance(value, TableValue):
                    assert attr.table is not None
                    value = _retag_table(value, attr.table)
                values[attr.name] = value
        return TupleValue(schema, values)

    # -- predicates ----------------------------------------------------------------------

    def _eval_predicate(self, predicate: ast.Predicate, env: dict[str, TupleValue]) -> bool:
        if isinstance(predicate, ast.BoolOp):
            if predicate.op == "AND":
                return all(self._eval_predicate(p, env) for p in predicate.operands)
            return any(self._eval_predicate(p, env) for p in predicate.operands)
        if isinstance(predicate, ast.Not):
            return not self._eval_predicate(predicate.operand, env)
        if isinstance(predicate, ast.Quantifier):
            rows = self._iterate_source(
                predicate.source,
                env,
                predicate.var,
                where=predicate.body if predicate.kind == "EXISTS" else None,
            )
            if predicate.kind == "EXISTS":
                return any(
                    self._eval_predicate(predicate.body, {**env, predicate.var: row})
                    for row in rows
                )
            return all(
                self._eval_predicate(predicate.body, {**env, predicate.var: row})
                for row in rows
            )
        if isinstance(predicate, ast.Contains):
            subject = self._eval_expression(predicate.subject, env)
            subject = _unwrap_single_attribute(subject)
            matched = (
                isinstance(subject, str)
                and masked_match(predicate.pattern, subject)
            )
            return matched != predicate.negated
        if isinstance(predicate, ast.IsNull):
            subject = self._eval_expression(predicate.subject, env)
            subject = _unwrap_single_attribute(subject)
            return (subject is None) != predicate.negated
        if isinstance(predicate, ast.Comparison):
            left = self._eval_expression(predicate.left, env)
            right = self._eval_expression(predicate.right, env)
            return compare(predicate.op, left, right)
        raise ExecutionError(f"unhandled predicate {predicate!r}")  # pragma: no cover

    # -- expressions ----------------------------------------------------------------------

    def _eval_expression(self, expr: ast.Expression, env: dict[str, TupleValue]) -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Path):
            return self._eval_path(expr, env)
        if isinstance(expr, ast.Query):
            scope = _scope_from_env(env)
            schema = self._result_schema(expr, scope)
            return self._execute(expr, schema, env)
        if isinstance(expr, ast.Aggregate):
            return self._eval_aggregate(expr, env)
        raise ExecutionError(f"unhandled expression {expr!r}")  # pragma: no cover

    def _eval_aggregate(self, expr: ast.Aggregate, env: dict[str, TupleValue]) -> Any:
        if isinstance(expr.argument, ast.Path):
            values = self._eval_path_multi(expr.argument, env)
        else:
            values = [self._eval_expression(expr.argument, env)]
        return _aggregate(expr.function, values)

    def _eval_path_multi(self, path: ast.Path, env: dict[str, TupleValue]) -> list[Any]:
        """Evaluate a path with flattening across subtable levels: a name
        step applied to a table applies to each of its tuples."""
        if path.var not in env:
            raise ExecutionError(f"unbound tuple variable {path.var!r}")
        current: list[Any] = [env[path.var]]
        for step in path.steps:
            if step.name is not None:
                next_values: list[Any] = []
                for value in current:
                    if value is None:
                        continue
                    if isinstance(value, TableValue):
                        next_values.extend(row[step.name] for row in value.rows)
                    elif isinstance(value, TupleValue):
                        next_values.append(value[step.name])
                    else:
                        raise ExecutionError(
                            f"cannot select {step.name!r} in {path.dotted()!r}"
                        )
                current = next_values
            if step.subscript is not None:
                index = step.subscript - 1
                subscripted: list[Any] = []
                for value in current:
                    if isinstance(value, TableValue) and 0 <= index < len(value):
                        subscripted.append(value[index])
                    else:
                        subscripted.append(None)
                current = subscripted
        return current

    def _eval_path(self, path: ast.Path, env: dict[str, TupleValue]) -> Any:
        if path.var not in env:
            raise ExecutionError(f"unbound tuple variable {path.var!r}")
        current: Any = env[path.var]
        for step in path.steps:
            if step.name is not None:
                if current is None:
                    return None
                if not isinstance(current, TupleValue):
                    raise ExecutionError(
                        f"cannot select {step.name!r} in {path.dotted()!r}"
                    )
                current = current[step.name]
            if step.subscript is not None:
                if current is None:
                    return None
                if not isinstance(current, TableValue):
                    raise ExecutionError(
                        f"subscript in {path.dotted()!r} applies to a table"
                    )
                index = step.subscript - 1  # the language is 1-based
                if not 0 <= index < len(current):
                    current = None
                else:
                    current = current[index]
        return current


# ---------------------------------------------------------------------------
# value helpers
# ---------------------------------------------------------------------------


def _unwrap_single_attribute(value: Any) -> Any:
    """A tuple with a single atomic attribute acts as that value — the
    paper compares ``x.AUTHORS[1] = 'Jones'`` directly."""
    if isinstance(value, TupleValue):
        attrs = value.schema.attributes
        if len(attrs) == 1 and attrs[0].is_atomic:
            return value[attrs[0].name]
    return value


def _retag_table(value: TableValue, schema: TableSchema) -> TableValue:
    """Re-label a table value with an output attribute's schema (same
    attribute names; only the table name / identity differs)."""
    if value.schema.attribute_names != schema.attribute_names:
        raise ExecutionError(
            f"cannot relabel table {value.schema.name!r} as {schema.name!r}"
        )
    out = TableValue(schema)
    out.rows.extend(
        TupleValue(schema, {name: row[name] for name in schema.attribute_names})
        for row in value.rows
    )
    return out


def compare(op: str, left: Any, right: Any) -> bool:
    """Two-valued comparison; anything involving NULL is false."""
    left = _unwrap_single_attribute(left)
    right = _unwrap_single_attribute(right)
    if left is None or right is None:
        return False
    if isinstance(left, TableValue) or isinstance(right, TableValue):
        if not (isinstance(left, TableValue) and isinstance(right, TableValue)):
            # a table and an atom are *incomparable* but both non-NULL:
            # they are definitely not equal, so <> must say so (returning
            # False for both = and <> would make the pair "neither equal
            # nor unequal" — three-valued logic this engine does not have)
            return op == "<>"
        equal = left.canonical() == right.canonical()
        if op == "=":
            return equal
        if op == "<>":
            return not equal
        raise ExecutionError("tables compare with = and <> only")
    if isinstance(left, bool) != isinstance(right, bool):
        # BOOLEAN vs number: same reasoning — distinct types, never equal
        return op == "<>"
    try:
        if op == "=":
            return bool(left == right)
        if op == "<>":
            return bool(left != right)
        if op == "<":
            return bool(left < right)
        if op == "<=":
            return bool(left <= right)
        if op == ">":
            return bool(left > right)
        if op == ">=":
            return bool(left >= right)
    except TypeError as exc:
        raise ExecutionError(f"cannot compare {left!r} with {right!r}") from exc
    raise ExecutionError(f"unknown comparison operator {op!r}")


def masked_match(pattern: str, text: Any) -> bool:
    """The paper's masked search: ``*`` matches any run, ``?`` one
    character; matching is case-insensitive and the pattern may match
    anywhere inside the subject (substring semantics — ``CONTAINS
    'latency'`` matches ``'query.latency_ms'``; use ``=`` for exact
    string equality).

    A non-string subject (a number, a NULL that slipped past the caller)
    simply does not match — two-valued semantics, not a crash."""
    if not isinstance(text, str):
        return False
    regex = _compile_mask(pattern)
    return regex.search(text) is not None


@functools.lru_cache(maxsize=512)
def _compile_mask(pattern: str) -> "re.Pattern[str]":
    # cached: a CONTAINS over N rows compiles its mask once, not N times
    # (the cache also serves the planner / text-index masked_match paths)
    parts = []
    for char in pattern:
        if char == "*":
            parts.append(".*")
        elif char == "?":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts), re.IGNORECASE | re.DOTALL)


def _aggregate(function: str, values: list[Any]) -> Any:
    """Compute one aggregate over flattened values.

    Tables in the value list are unwrapped: COUNT adds their cardinality,
    the others consume their (single-attribute) column.  NULLs are ignored;
    an empty input yields 0 for COUNT and NULL for the rest (SQL-style).
    """
    atoms: list[Any] = []
    count = 0
    for value in values:
        if value is None:
            continue
        if isinstance(value, TableValue):
            count += len(value)
            attrs = value.schema.attributes
            if len(attrs) == 1 and attrs[0].is_atomic:
                atoms.extend(
                    row[attrs[0].name]
                    for row in value.rows
                    if row[attrs[0].name] is not None
                )
            elif function != "COUNT":
                raise ExecutionError(
                    f"{function} needs atomic values, got table "
                    f"{value.schema.name!r}"
                )
            continue
        value = _unwrap_single_attribute(value)
        if value is None:
            continue
        count += 1
        atoms.append(value)
    if function == "COUNT":
        return count
    if not atoms:
        return None
    try:
        if function == "SUM":
            return sum(atoms)
        if function == "AVG":
            return sum(atoms) / len(atoms)
        if function == "MIN":
            return min(atoms)
        if function == "MAX":
            return max(atoms)
    except TypeError as exc:
        # heterogeneous atoms (a string among numbers, ...) must surface
        # as a query error, not a raw TypeError escaping the executor
        raise ExecutionError(
            f"{function} over mixed value types: {exc}"
        ) from exc
    raise ExecutionError(f"unknown aggregate {function!r}")  # pragma: no cover


def _sortable(value: Any) -> tuple:
    """A totally-ordered proxy for an atomic value (NULLs sort first;
    booleans before numbers never mix — the binder guarantees homogeneous
    keys, this is only a tiebreaker-safe encoding).

    ``datetime.datetime`` is a subclass of ``datetime.date``, so it must
    be handled *first* and must keep its time-of-day: collapsing both to
    ``toordinal()`` made all timestamps of one day compare equal and
    ORDER BY over them nondeterministic.  Dates encode as
    ``(4, ordinal, 0.0)`` so dates and timestamps stay mutually
    comparable (a bare date sorts as that day's midnight).
    """
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, datetime.datetime):
        seconds = (
            value.hour * 3600
            + value.minute * 60
            + value.second
            + value.microsecond / 1_000_000
        )
        return (4, value.toordinal(), seconds)
    if isinstance(value, datetime.date):
        return (4, value.toordinal(), 0.0)
    raise ExecutionError(f"cannot sort by {value!r}")


def _scope_from_env(env: dict[str, TupleValue]) -> Scope:
    scope = Scope()
    for var, row in env.items():
        scope.define(var, row.schema)
    return scope
