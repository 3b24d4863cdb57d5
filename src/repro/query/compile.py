"""The execution core: statements become Python closures.

A statement is compiled **once** into a tree of closures keyed by its AST
fingerprint (the frozen :class:`repro.query.ast.Query` is hashable, so
the statement itself is the cache key): predicates become functions,
paths become specialized attribute getters, and the row loop becomes a
tight recursion that mutates a single environment dict instead of
copying it per row (safe — the binder rejects all variable shadowing).
Root and partial UPDATE/DELETE compile their WHERE and SET expressions
the same way, once per statement execution.  This is the only
evaluator; ``tests/model/reference.py`` is the plain-Python semantics
reference the test suite checks it against.

Three further wins ride on the compiled shape:

* **Settled conjuncts** — the planner reports WHERE conjuncts whose
  index decomposition was lossless (``PlanReport.settled``); compiled
  execution drops their closures from the residual predicate, so
  index-covered conditions are never re-tested against decoded data
  subtuples (the paper's Section 4.2 point).
* **Columnar flat scans** — a single-range query over a stored flat
  table whose predicate/projection/order keys touch only first-level
  atomics runs over columnar chunks (``Database.scan_chunks`` +
  ``HeapFile.fetch_columns``): one pin per heap page, only the
  referenced attributes decoded, tuple objects built only for qualifying
  rows via ``TupleValue.trusted``.
* **Lazy object decode** — NF2 candidates arrive as
  :class:`repro.storage.lazy.LazyTupleValue`; data subtuples of parts
  the residual predicate and projection never touch are never read.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.errors import CatalogError, ExecutionError
from repro.model.schema import TableSchema
from repro.model.values import TableValue, TupleValue
from repro.obs import METRICS
from repro.query import ast
from repro.query.binder import Scope
from repro.query.executor import (
    Executor,
    _aggregate,
    _compile_mask,
    _retag_table,
    _sortable,
    _unwrap_single_attribute,
    compare,
)


#: sentinel: a join-candidate getter whose variable is not bound yet
_SKIP = object()
#: sentinel: variable absent from the environment before a loop bound it
_MISSING = object()

_MIRROR = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def compile_query(executor: Executor, query: ast.Query) -> "CompiledQuery":
    """Compile *query* against the top-level scope.

    Binding errors propagate unchanged (they are user errors)."""
    schema = executor._binder.bind_query(query, Scope())
    return CompiledQuery(executor, query, schema)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


def _path_steps(path: ast.Path) -> tuple[tuple[Optional[str], Optional[int]], ...]:
    """``(name, 0-based subscript)`` per step (the language is 1-based)."""
    return tuple(
        (step.name, None if step.subscript is None else step.subscript - 1)
        for step in path.steps
    )


def _compile_path(path: ast.Path) -> Callable[[Executor, dict], Any]:
    var = path.var
    steps = path.steps
    dotted = path.dotted()
    if len(steps) == 1 and steps[0].name is not None and steps[0].subscript is None:
        # the overwhelmingly common shape: one plain attribute step
        name = steps[0].name

        def get_attr(ex: Executor, env: dict) -> Any:
            try:
                row = env[var]
            except KeyError:
                raise ExecutionError(f"unbound tuple variable {var!r}") from None
            if row is None:
                return None
            if not isinstance(row, TupleValue):
                raise ExecutionError(f"cannot select {name!r} in {dotted!r}")
            return row[name]

        return get_attr

    plan = _path_steps(path)

    # general shape: multi-step and subscripted paths; NULL propagates,
    # an out-of-range subscript yields NULL
    def get_path(ex: Executor, env: dict) -> Any:
        try:
            current = env[var]
        except KeyError:
            raise ExecutionError(f"unbound tuple variable {var!r}") from None
        for name, index in plan:
            if name is not None:
                if current is None:
                    return None
                if not isinstance(current, TupleValue):
                    raise ExecutionError(f"cannot select {name!r} in {dotted!r}")
                current = current[name]
            if index is not None:
                if current is None:
                    return None
                if not isinstance(current, TableValue):
                    raise ExecutionError(
                        f"subscript in {dotted!r} applies to a table"
                    )
                current = current[index] if 0 <= index < len(current) else None
        return current

    return get_path


def _compile_path_multi(path: ast.Path) -> Callable[[Executor, dict], list]:
    """An aggregate argument: a name step applied to a table applies to
    each of its tuples, so the path flattens across subtable levels."""
    var = path.var
    dotted = path.dotted()
    plan = _path_steps(path)

    def values(ex: Executor, env: dict) -> list:
        try:
            current = [env[var]]
        except KeyError:
            raise ExecutionError(f"unbound tuple variable {var!r}") from None
        for name, index in plan:
            if name is not None:
                flat: list = []
                for value in current:
                    if value is None:
                        continue
                    if isinstance(value, TableValue):
                        flat.extend(row[name] for row in value.rows)
                    elif isinstance(value, TupleValue):
                        flat.append(value[name])
                    else:
                        raise ExecutionError(
                            f"cannot select {name!r} in {dotted!r}"
                        )
                current = flat
            if index is not None:
                current = [
                    value[index]
                    if isinstance(value, TableValue) and 0 <= index < len(value)
                    else None
                    for value in current
                ]
        return current

    return values


def _compile_subquery(query: ast.Query) -> Callable[[Executor, dict], TableValue]:
    """An expression-position subquery.  Its scope is the environment it
    runs in, so it binds on first evaluation and keeps the compiled plan
    in the closure from then on."""
    compiled: Optional[CompiledQuery] = None

    def run_subquery(ex: Executor, env: dict) -> TableValue:
        nonlocal compiled
        if compiled is None:
            scope = Scope()
            for var, row in env.items():
                scope.define(var, row.schema)
            compiled = CompiledQuery(ex, query, ex._binder.bind_query(query, scope))
        return compiled.execute(ex, env)

    return run_subquery


def _compile_expression(expr: ast.Expression) -> Callable[[Executor, dict], Any]:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda ex, env: value
    if isinstance(expr, ast.Path):
        return _compile_path(expr)
    if isinstance(expr, ast.Aggregate):
        function = expr.function
        if isinstance(expr.argument, ast.Path):
            values = _compile_path_multi(expr.argument)
            return lambda ex, env: _aggregate(function, values(ex, env))
        argument = _compile_expression(expr.argument)
        return lambda ex, env: _aggregate(function, [argument(ex, env)])
    if isinstance(expr, ast.Query):
        return _compile_subquery(expr)
    raise ExecutionError(f"unhandled expression {expr!r}")


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def _compile_predicate(pred: ast.Predicate) -> Callable[[Executor, dict], bool]:
    if isinstance(pred, ast.BoolOp):
        fns = tuple(_compile_predicate(p) for p in pred.operands)
        if pred.op == "AND":
            return _and_all(fns)

        def f_or(ex: Executor, env: dict) -> bool:
            for fn in fns:
                if fn(ex, env):
                    return True
            return False

        return f_or
    if isinstance(pred, ast.Not):
        inner = _compile_predicate(pred.operand)
        return lambda ex, env: not inner(ex, env)
    if isinstance(pred, ast.Quantifier):
        return _compile_quantifier(pred)
    if isinstance(pred, ast.Contains):
        subject_fn = _compile_expression(pred.subject)
        regex = _compile_mask(pred.pattern)
        negated = pred.negated
        search = regex.search

        def f_contains(ex: Executor, env: dict) -> bool:
            subject = _unwrap_single_attribute(subject_fn(ex, env))
            matched = isinstance(subject, str) and search(subject) is not None
            return matched != negated

        return f_contains
    if isinstance(pred, ast.IsNull):
        subject_fn = _compile_expression(pred.subject)
        negated = pred.negated

        def f_isnull(ex: Executor, env: dict) -> bool:
            return (_unwrap_single_attribute(subject_fn(ex, env)) is None) != negated

        return f_isnull
    if isinstance(pred, ast.Comparison):
        left = _compile_expression(pred.left)
        right = _compile_expression(pred.right)
        op = pred.op
        return lambda ex, env: compare(op, left(ex, env), right(ex, env))
    raise ExecutionError(f"unhandled predicate {pred!r}")


def _and_all(
    fns: tuple[Callable[[Executor, dict], bool], ...]
) -> Callable[[Executor, dict], bool]:
    if len(fns) == 1:
        return fns[0]

    def f_and(ex: Executor, env: dict) -> bool:
        for fn in fns:
            if not fn(ex, env):
                return False
        return True

    return f_and


def _compile_quantifier(pred: ast.Quantifier) -> Callable[[Executor, dict], bool]:
    body_fn = _compile_predicate(pred.body)
    var = pred.var
    exists = pred.kind == "EXISTS"
    # only EXISTS hands its body to the provider for index-nested-loop
    # candidates: ALL must see every row
    crange = _CompiledRange(
        ast.Range(var=var, source=pred.source),
        pred.body if exists else None,
    )

    def f_quant(ex: Executor, env: dict) -> bool:
        rows = crange.iterate(ex, env)
        prev = env.get(var, _MISSING)
        try:
            if exists:
                for row in rows:
                    env[var] = row
                    if body_fn(ex, env):
                        return True
                return False
            for row in rows:
                env[var] = row
                if not body_fn(ex, env):
                    return False
            return True
        finally:
            if prev is _MISSING:
                env.pop(var, None)
            else:
                env[var] = prev

    return f_quant


# ---------------------------------------------------------------------------
# ranges
# ---------------------------------------------------------------------------


def _join_candidates(
    var: str, where: Optional[ast.Predicate]
) -> tuple[tuple[str, Callable[[Executor, dict], Any]], ...]:
    """Pre-resolved index-nested-loop probes, in the order EXPLAIN
    predicts them (both walk :func:`planner.join_conjuncts`)."""
    from repro.query.planner import join_conjuncts

    out: list[tuple[str, Callable[[Executor, dict], Any]]] = []
    for attribute, theirs in join_conjuncts(where, var):
        if isinstance(theirs, ast.Literal):
            out.append((attribute, lambda ex, env, v=theirs.value: v))
            continue
        fn = _compile_expression(theirs)
        theirs_var = theirs.var

        def getter(ex: Executor, env: dict, fn=fn, theirs_var=theirs_var) -> Any:
            if theirs_var not in env:
                return _SKIP
            return _unwrap_single_attribute(fn(ex, env))

        out.append((attribute, getter))
    return tuple(out)


class _CompiledRange:
    """One FROM range: a stored table (with pre-resolved join-probe
    candidates) or a path into an outer variable."""

    __slots__ = ("var", "table", "asof", "path_fn", "dotted", "joins")

    def __init__(self, range_: ast.Range, where: Optional[ast.Predicate]):
        self.var = range_.var
        source = range_.source
        self.table = source.table
        self.asof = source.asof
        self.path_fn = None
        self.dotted = None
        self.joins: tuple = ()
        if source.table is None:
            assert source.path is not None
            self.path_fn = _compile_expression(source.path)
            self.dotted = source.path.dotted()
        elif source.asof is None:
            self.joins = _join_candidates(self.var, where)

    def iterate(self, ex: Executor, env: dict) -> Iterable[TupleValue]:
        if self.table is not None:
            provider = ex._provider
            for attribute, getter in self.joins:
                value = getter(ex, env)
                if (
                    value is _SKIP
                    or value is None
                    or isinstance(value, (TableValue, TupleValue))
                ):
                    continue
                rows = provider.lookup_rows(self.table, attribute, value)
                if rows is not None:
                    profile = ex._profile
                    if profile is not None:
                        profile.join_lookups += 1
                    return rows
            return provider.iterate_table(self.table, self.asof)
        value = self.path_fn(ex, env)
        if not isinstance(value, TableValue):
            raise ExecutionError(
                f"range source {self.dotted!r} did not yield a table"
            )
        return value.rows


# ---------------------------------------------------------------------------
# projection and ordering
# ---------------------------------------------------------------------------


def _compile_projection(
    executor: Executor, query: ast.Query, schema: TableSchema
) -> Callable[[Executor, dict], TupleValue]:
    if query.select_star:
        names = schema.attribute_names
        var0 = query.ranges[0].var
        trusted = TupleValue.trusted

        def project_star(ex: Executor, env: dict) -> TupleValue:
            row = env[var0]
            # values come from a same-shape validated tuple: no re-check
            return trusted(schema, {name: row[name] for name in names})

        return project_star

    makers: list[tuple] = []
    for attr, item in zip(schema.attributes, query.select):
        if isinstance(item.expr, ast.Query):
            assert attr.table is not None
            sub = CompiledQuery(executor, item.expr, attr.table)
            makers.append(
                (attr.name, lambda ex, env, s=sub: s.execute(ex, env), True, None)
            )
        else:
            fn = _compile_expression(item.expr)
            makers.append((attr.name, fn, False, attr.table if attr.is_table else None))

    def project(ex: Executor, env: dict) -> TupleValue:
        values: dict[str, Any] = {}
        for name, fn, is_query, table_schema in makers:
            value = fn(ex, env)
            if not is_query:
                value = _unwrap_single_attribute(value)
                if table_schema is not None and isinstance(value, TableValue):
                    value = _retag_table(value, table_schema)
            values[name] = value
        # the validated constructor on purpose: select items coerce (an
        # INT literal into a FLOAT output column) and type errors surface
        return TupleValue(schema, values)

    return project


def _compile_order_keys(
    query: ast.Query,
) -> tuple[Callable[[Executor, dict], Any], ...]:
    fns = []
    for item in query.order_by:
        fn = _compile_expression(item.expr)
        fns.append(
            lambda ex, env, f=fn: _sortable(_unwrap_single_attribute(f(ex, env)))
        )
    return tuple(fns)


# ---------------------------------------------------------------------------
# columnar flat scans
# ---------------------------------------------------------------------------


class _ColumnarPlan:
    """Factories (per chunk: columns dict -> per-row callables) for a
    single-range flat-table scan, and the attributes they read (``None``:
    all of them) — the scan decodes no other column."""

    __slots__ = ("pred_factory", "row_factory", "key_factory", "needed")

    def __init__(self, pred_factory, row_factory, key_factory, needed):
        self.pred_factory = pred_factory
        self.row_factory = row_factory
        self.key_factory = key_factory
        self.needed = needed


class _Columns:
    """The range variable of a columnar scan and its first-level atomic
    attributes; records every attribute the plan references."""

    __slots__ = ("var", "atomic", "used")

    def __init__(self, var: str, atomic: set):
        self.var = var
        self.atomic = atomic
        self.used: set = set()

    def attr(self, expr: Any) -> Optional[str]:
        if (
            isinstance(expr, ast.Path)
            and expr.var == self.var
            and len(expr.steps) == 1
            and expr.steps[0].name in self.atomic
            and expr.steps[0].subscript is None
        ):
            name = expr.steps[0].name
            self.used.add(name)
            return name
        return None


def _columnar_predicate(pred: ast.Predicate, cols: _Columns):
    """``make(columns) -> test(i)`` for one predicate, or ``None`` when a
    sub-shape is not columnar (the whole plan then falls back to rows).
    Semantics mirror ``compare()``/``masked_match`` exactly."""
    if isinstance(pred, ast.BoolOp):
        subs = [_columnar_predicate(p, cols) for p in pred.operands]
        if any(s is None for s in subs):
            return None
        conjunctive = pred.op == "AND"

        def make_bool(columns):
            tests = [s(columns) for s in subs]
            if conjunctive:

                def test_and(i):
                    for t in tests:
                        if not t(i):
                            return False
                    return True

                return test_and

            def test_or(i):
                for t in tests:
                    if t(i):
                        return True
                return False

            return test_or

        return make_bool
    if isinstance(pred, ast.Not):
        sub = _columnar_predicate(pred.operand, cols)
        if sub is None:
            return None

        def make_not(columns):
            t = sub(columns)
            return lambda i: not t(i)

        return make_not
    if isinstance(pred, ast.IsNull):
        name = cols.attr(pred.subject)
        if name is None:
            return None
        negated = pred.negated

        def make_isnull(columns):
            col = columns[name]
            return lambda i: (col[i] is None) != negated

        return make_isnull
    if isinstance(pred, ast.Contains):
        name = cols.attr(pred.subject)
        if name is None:
            return None
        search = _compile_mask(pred.pattern).search
        negated = pred.negated

        def make_contains(columns):
            col = columns[name]

            def test(i):
                value = col[i]
                matched = isinstance(value, str) and search(value) is not None
                return matched != negated

            return test

        return make_contains
    if isinstance(pred, ast.Comparison):
        left_name = cols.attr(pred.left)
        right_name = cols.attr(pred.right)
        op = pred.op
        if left_name is not None and isinstance(pred.right, ast.Literal):
            return _columnar_leaf(left_name, op, pred.right.value)
        if right_name is not None and isinstance(pred.left, ast.Literal):
            return _columnar_leaf(right_name, _MIRROR[op], pred.left.value)
        if left_name is not None and right_name is not None:

            def make_cols(columns):
                a = columns[left_name]
                b = columns[right_name]
                return lambda i: compare(op, a[i], b[i])

            return make_cols
        if isinstance(pred.left, ast.Literal) and isinstance(pred.right, ast.Literal):
            constant = compare(op, pred.left.value, pred.right.value)
            return lambda columns: (lambda i: constant)
        return None
    return None  # quantifiers etc. — not columnar


def _columnar_leaf(name: str, op: str, value: Any):
    """A specialized ``column <op> literal`` test with full ``compare()``
    parity: NULL is false, bool never equals a number, ordering type
    mismatches raise ExecutionError."""
    if value is None:
        return lambda columns: (lambda i: False)
    value_is_bool = isinstance(value, bool)
    if op == "=":

        def make_eq(columns):
            col = columns[name]

            def test(i):
                v = col[i]
                if v is None or isinstance(v, bool) != value_is_bool:
                    return False
                return v == value

            return test

        return make_eq
    if op == "<>":

        def make_ne(columns):
            col = columns[name]

            def test(i):
                v = col[i]
                if v is None:
                    return False
                if isinstance(v, bool) != value_is_bool:
                    return True
                return v != value

            return test

        return make_ne

    def make_ord(columns):
        col = columns[name]

        def test(i):
            v = col[i]
            if v is None:
                return False
            if isinstance(v, bool) != value_is_bool:
                return False
            try:
                if op == "<":
                    return bool(v < value)
                if op == "<=":
                    return bool(v <= value)
                if op == ">":
                    return bool(v > value)
                return bool(v >= value)
            except TypeError as exc:
                raise ExecutionError(
                    f"cannot compare {v!r} with {value!r}"
                ) from exc

        return test

    return make_ord


def _columnar_projection(query: ast.Query, schema: TableSchema, cols: _Columns):
    trusted = TupleValue.trusted
    if query.select_star:
        names = list(schema.attribute_names)

        def make_star(columns):
            pairs = [(name, columns[name]) for name in names]

            def build(i):
                return trusted(schema, {name: col[i] for name, col in pairs})

            return build

        return make_star
    specs: list[tuple[str, bool, Any]] = []
    for attr, item in zip(schema.attributes, query.select):
        if attr.is_table:
            return None
        name = cols.attr(item.expr)
        if name is not None:
            specs.append((attr.name, True, name))
        elif isinstance(item.expr, ast.Literal):
            specs.append((attr.name, False, item.expr.value))
        else:
            return None

    def make(columns):
        resolved = [
            (out, columns[payload] if is_col else None, payload)
            for out, is_col, payload in specs
        ]

        def build(i):
            return trusted(
                schema,
                {
                    out: (col[i] if col is not None else payload)
                    for out, col, payload in resolved
                },
            )

        return build

    return make


def _columnar_keys(query: ast.Query, cols: _Columns):
    names = []
    for item in query.order_by:
        name = cols.attr(item.expr)
        if name is None:
            return None
        names.append(name)

    def make(columns):
        keys = [columns[name] for name in names]
        return lambda i: tuple(_sortable(col[i]) for col in keys)

    return make


def _compile_columnar(
    executor: Executor, query: ast.Query, schema: TableSchema
) -> Optional[_ColumnarPlan]:
    """A columnar plan for a single-range flat-table scan, or ``None``
    (the row loop handles everything else).  Static shape only — the
    runtime gate is ``Database.scan_chunks`` (it returns ``None`` under
    sessions, snapshots, SYS views, temporal tables...)."""
    if len(query.ranges) != 1:
        return None
    range_ = query.ranges[0]
    source = range_.source
    if source.table is None or source.asof is not None:
        return None
    try:
        src_schema = executor._provider.table_schema(source.table)
    except CatalogError:
        return None
    if src_schema is None or not src_schema.is_flat:
        return None
    cols = _Columns(
        range_.var, {attr.name for attr in src_schema.attributes if attr.is_atomic}
    )
    pred_factory = None
    if query.where is not None:
        pred_factory = _columnar_predicate(query.where, cols)
        if pred_factory is None:
            return None
    row_factory = _columnar_projection(query, schema, cols)
    if row_factory is None:
        return None
    key_factory = None
    if query.order_by:
        key_factory = _columnar_keys(query, cols)
        if key_factory is None:
            return None
    needed = None if query.select_star else frozenset(cols.used)
    return _ColumnarPlan(pred_factory, row_factory, key_factory, needed)


# ---------------------------------------------------------------------------
# the compiled statement
# ---------------------------------------------------------------------------


class CompiledQuery:
    """One statement, compiled: ranges, residual-capable WHERE closures,
    projection, order keys, and (when shapes allow) a columnar plan."""

    __slots__ = (
        "query",
        "schema",
        "ranges",
        "where_fn",
        "conjuncts",
        "project_fn",
        "order_fns",
        "columnar",
    )

    def __init__(self, executor: Executor, query: ast.Query, schema: TableSchema):
        from repro.query.planner import _flatten_and

        self.query = query
        self.schema = schema
        self.ranges = [_CompiledRange(r, query.where) for r in query.ranges]
        # per-conjunct closures let settled conjuncts drop out of the
        # residual predicate without recompiling anything
        self.conjuncts: Optional[list[tuple[ast.Predicate, Callable]]] = None
        if query.where is None:
            self.where_fn = None
        else:
            flat = _flatten_and(query.where)
            if flat is None:
                self.where_fn = _compile_predicate(query.where)
            else:
                pairs = [(node, _compile_predicate(node)) for node in flat]
                self.conjuncts = pairs
                self.where_fn = _and_all(tuple(fn for _node, fn in pairs))
        self.project_fn = _compile_projection(executor, query, schema)
        self.order_fns = _compile_order_keys(query)
        self.columnar = _compile_columnar(executor, query, schema)

    # -- residual predicates -------------------------------------------------

    def _residual(self, settled: list) -> Optional[Callable]:
        """The WHERE closure minus index-settled conjuncts (matched by
        node identity — the plan extracted them from this same AST)."""
        if self.conjuncts is None:
            return self.where_fn
        settled_ids = {id(node) for node in settled}
        rest = tuple(
            fn for node, fn in self.conjuncts if id(node) not in settled_ids
        )
        if len(rest) == len(self.conjuncts):
            return self.where_fn
        if not rest:
            return None
        return _and_all(rest)

    # -- execution -----------------------------------------------------------

    def execute(
        self, ex: Executor, env: dict, is_top: bool = False
    ) -> TableValue:
        query = self.query
        profile = ex._profile
        ranges = self.ranges
        first_iter = None
        sort_elided = False
        settled: list = []
        if is_top and ranges and ranges[0].table is not None:
            provider = ex._provider
            r0 = ranges[0]
            first_iter = provider.iterate_table_for_query(
                r0.table, r0.asof, query, r0.var
            )
            plan = provider.last_plan
            if plan is not None:
                settled = plan.settled
                sort_elided = bool(query.order_by) and plan.sort_elided
            elif self.columnar is not None:
                chunks = provider.scan_chunks(r0.table, self.columnar.needed)
                if chunks is not None:
                    return self._execute_columnar(ex, chunks, is_top)
        where_fn = self.where_fn
        if settled:
            where_fn = self._residual(settled)
            report = ex.exec_report
            if report is not None:
                report.settled_conjuncts += len(settled)

        result = TableValue(self.schema)
        rows_out = result.rows
        keys_out: list[tuple] = []
        collect_keys = bool(query.order_by) and not sort_elided
        order_fns = self.order_fns
        project = self.project_fn
        n = len(ranges)

        def emit() -> None:
            if where_fn is not None:
                if profile is not None:
                    profile.predicate_evals += 1
                if not where_fn(ex, env):
                    return
            if profile is not None and is_top:
                profile.rows_emitted += 1
            rows_out.append(project(ex, env))
            if collect_keys:
                keys_out.append(tuple(fn(ex, env) for fn in order_fns))

        def loop(i: int) -> None:
            if i == n:
                emit()
                return
            crange = ranges[i]
            if i == 0 and first_iter is not None:
                rows = first_iter
            else:
                rows = crange.iterate(ex, env)
            var = crange.var
            prev = env.get(var, _MISSING)
            try:
                if profile is not None:
                    scanned = profile.rows_scanned
                    count = scanned.get(var, 0)
                    for row in rows:
                        count += 1
                        env[var] = row
                        loop(i + 1)
                    scanned[var] = count
                else:
                    for row in rows:
                        env[var] = row
                        loop(i + 1)
            finally:
                if prev is _MISSING:
                    env.pop(var, None)
                else:
                    env[var] = prev

        loop(0)
        self._finish(result, keys_out, sort_elided)
        return result

    def _execute_columnar(
        self, ex: Executor, chunks: Iterable[tuple[int, dict]], is_top: bool
    ) -> TableValue:
        query = self.query
        profile = ex._profile
        plan = self.columnar
        assert plan is not None
        result = TableValue(self.schema)
        rows_out = result.rows
        keys_out: list[tuple] = []
        collect_keys = bool(query.order_by)
        report = ex.exec_report
        var = self.ranges[0].var
        emitted = 0
        for count, columns in chunks:
            if report is not None:
                report.columnar_chunks += 1
            test = (
                plan.pred_factory(columns)
                if plan.pred_factory is not None
                else None
            )
            build = plan.row_factory(columns)
            key_of = plan.key_factory(columns) if collect_keys else None
            if profile is not None:
                scanned = profile.rows_scanned
                scanned[var] = scanned.get(var, 0) + count
                if test is not None:
                    # every row is tested, exactly like the row loop
                    profile.predicate_evals += count
            if test is None:
                for i in range(count):
                    rows_out.append(build(i))
                    if key_of is not None:
                        keys_out.append(key_of(i))
                emitted += count
            else:
                for i in range(count):
                    if not test(i):
                        continue
                    rows_out.append(build(i))
                    if key_of is not None:
                        keys_out.append(key_of(i))
                    emitted += 1
        if profile is not None and is_top:
            profile.rows_emitted += emitted
        self._finish(result, keys_out, sort_elided=False)
        return result

    def _finish(
        self, result: TableValue, keys_out: list[tuple], sort_elided: bool
    ) -> None:
        """Shared ORDER BY / DISTINCT epilogue of the row and columnar
        loops: a stable multi-key sort, then first-occurrence DISTINCT."""
        query = self.query
        if query.order_by:
            if sort_elided:
                if METRICS.enabled:
                    METRICS.inc("query.sorts_elided")
            else:
                pairs = list(zip(result.rows, keys_out))
                for index in range(len(query.order_by) - 1, -1, -1):
                    descending = query.order_by[index].descending
                    pairs.sort(
                        key=lambda pair, index=index: pair[1][index],
                        reverse=descending,
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
