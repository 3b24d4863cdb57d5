"""Running NF2 queries, and the value semantics every evaluator shares.

Execution follows the paper's mental model exactly (Section 3, Example 2):
each FROM range is a loop over the tuples of its source; an inner range
whose source is a path (``y IN x.PROJECTS``) re-binds for every binding of
the outer variable; sub-SELECTs in the select list are correlated queries
producing table-valued output attributes.  :class:`Executor` runs a
statement by compiling it once into closures (:mod:`repro.query.compile`)
and re-executing the cached plan.

NULL semantics are two-valued: a comparison involving NULL is false
(``IS NULL`` exists for explicit tests).  ``ALL`` over an empty subtable is
vacuously true, ``EXISTS`` false.  The helpers below (:func:`compare`,
:func:`masked_match`, :func:`_aggregate`, :func:`_sortable`) define those
semantics for the compiled engine and for the test suite's reference
evaluator alike.
"""

from __future__ import annotations

import datetime
import functools
import re
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Protocol

from repro.errors import ExecutionError
from repro.model.schema import TableSchema
from repro.model.values import TableValue, TupleValue
from repro.obs import METRICS, TRACER
from repro.query import ast
from repro.query.binder import Binder, SchemaProvider


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

    cache: str  # "hit" | "miss"
    settled_conjuncts: int = 0  # WHERE conjuncts skipped (index-settled)
    columnar_chunks: int = 0  # columnar batches consumed


class TableProvider(SchemaProvider, Protocol):
    """What the executor needs from the database (``Database`` is the one
    provider; every member is read at call time)."""

    #: bumped by DDL: compiled plans are stale
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


class Executor:
    def __init__(self, provider: TableProvider):
        self._provider = provider
        self._binder = Binder(provider)
        # statement fingerprint (the hashable Query AST) -> (schema epoch,
        # CompiledQuery)
        self._compiled_cache: OrderedDict[ast.Query, tuple[int, Any]] = (
            OrderedDict()
        )
        #: the profile of the most recent profiled run (None if the last
        #: run happened with observability off)
        self.last_profile: Optional[QueryProfile] = None
        #: how the most recent run executed (cache hit, settled conjuncts,
        #: columnar chunks) — feeds EXPLAIN ANALYZE
        self.exec_report: Optional[ExecReport] = None
        self._profile: Optional[QueryProfile] = None

    # -- public ------------------------------------------------------------------

    def run(self, query: ast.Query) -> TableValue:
        """Execute a query; returns its (possibly nested) result table.

        The statement is compiled once into Python closures (keyed by its
        AST fingerprint — see :mod:`repro.query.compile`) and re-executed
        from the cache."""
        with TRACER.span("bind"):
            compiled, cache = self._compiled(query)
        profile = QueryProfile() if (METRICS.enabled or TRACER.enabled) else None
        self._profile = profile
        report = ExecReport(cache=cache)
        self.exec_report = report
        try:
            with TRACER.span("execute") as span:
                result = compiled.execute(self, {}, is_top=True)
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
                if report.settled_conjuncts:
                    METRICS.inc("exec.settled_conjuncts", report.settled_conjuncts)
                if report.columnar_chunks:
                    METRICS.inc("exec.columnar_chunks", report.columnar_chunks)
        return result

    def _compiled(self, query: ast.Query) -> tuple[Any, str]:
        """The statement's compiled plan and ``"hit"`` or ``"miss"``: from
        the fingerprint cache when its schema epoch still matches."""
        from repro.query.compile import compile_query

        epoch = self._provider.schema_epoch
        cache = self._compiled_cache
        entry = cache.get(query)
        if entry is not None and entry[0] == epoch:
            cache.move_to_end(query)
            if METRICS.enabled:
                METRICS.inc("exec.compile_hits")
            return entry[1], "hit"
        plan = compile_query(self, query)
        if METRICS.enabled:
            METRICS.inc("exec.compiles")
        cache[query] = (epoch, plan)
        cache.move_to_end(query)
        while len(cache) > _COMPILED_CACHE_LIMIT:
            cache.popitem(last=False)
        return plan, "miss"


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
