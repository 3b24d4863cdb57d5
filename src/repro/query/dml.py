"""Partial (sub-object) DML: language-level insert / update / delete of
arbitrary parts of complex objects.

Section 4.1's third demand — "fast processing ... not only ... for complex
objects as a whole but for arbitrary parts of these objects as well" —
surfaces in the language as::

    INSERT INTO y.MEMBERS
    FROM   x IN DEPARTMENTS, y IN x.PROJECTS
    WHERE  x.DNO = 314 AND y.PNO = 17
    VALUES (77001, 'Staff')

    UPDATE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS
    SET    FUNCTION = 'Adviser'
    WHERE  z.EMPNO = 56019

    DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS
    WHERE  z.FUNCTION = 'Staff'

The evaluator enumerates FROM bindings *structurally* (tracking the
(subtable, position) path of every nested variable), tests each against
the WHERE clause compiled once per statement (:mod:`repro.query.compile`),
groups matches per stored object, and applies them through
:meth:`Database.update`, so index maintenance and temporal versioning
come along for free.  Stored ranges
take their rows from the planner like SELECT does
(:meth:`Database._dml_tids`): ``WHERE x.DNO = 314`` probes an index
instead of loading every department.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ExecutionError
from repro.model.schema import TableSchema
from repro.model.values import TupleValue
from repro.query import ast
from repro.query.compile import _compile_expression, _compile_predicate
from repro.storage.tid import TID

if TYPE_CHECKING:
    from repro.database import Database

#: structural location of one bound variable
@dataclass(frozen=True)
class BoundVar:
    table: str
    tid: TID
    path: tuple[tuple[str, int], ...]  # (subtable name, position) hops


@dataclass
class Binding:
    env: dict[str, TupleValue]
    info: dict[str, BoundVar]


class PartialDML:
    """Executes Sub{Insert,Update,Delete}Statement against a Database."""

    def __init__(self, db: "Database"):
        self._db = db

    # -- binding enumeration ------------------------------------------------

    def _enumerate(
        self, ranges: tuple[ast.Range, ...], where: Optional[ast.Predicate]
    ) -> list[Binding]:
        bindings: list[Binding] = []
        # each stored range's rows, planned once on first reach: its
        # candidates depend on its own conjuncts, not on outer bindings
        stored: dict[int, list[TID]] = {}
        test = None if where is None else _compile_predicate(where)
        executor = self._db._executor

        def recurse(index: int, env: dict, info: dict) -> None:
            if index == len(ranges):
                if test is None or test(executor, env):
                    bindings.append(Binding(dict(env), dict(info)))
                return
            range_ = ranges[index]
            source = range_.source
            if source.asof is not None:
                raise ExecutionError("DML operates on the current state, not ASOF")
            if source.table is not None:
                entry = self._db.catalog.table(source.table)
                if index not in stored:
                    stored[index] = self._db._dml_tids(entry, where, range_.var)
                for tid in stored[index]:
                    row = entry.store.fetch(tid)
                    recurse(
                        index + 1,
                        {**env, range_.var: row},
                        {**info, range_.var: BoundVar(source.table, tid, ())},
                    )
                return
            path = source.path
            assert path is not None
            if (
                path.var not in info
                or len(path.steps) != 1
                or path.steps[0].name is None
                or path.has_subscript
            ):
                raise ExecutionError(
                    "partial DML ranges must chain one subtable at a time "
                    f"(got {path.dotted()!r})"
                )
            parent = info[path.var]
            subtable_name = path.steps[0].name
            table_value = env[path.var][subtable_name]
            for position, row in enumerate(table_value.rows):
                recurse(
                    index + 1,
                    {**env, range_.var: row},
                    {
                        **info,
                        range_.var: BoundVar(
                            parent.table,
                            parent.tid,
                            parent.path + ((subtable_name, position),),
                        ),
                    },
                )

        recurse(0, {}, {})
        return bindings

    @staticmethod
    def _element_schema(schema: TableSchema, path: tuple[tuple[str, int], ...]) -> TableSchema:
        for subtable_name, _position in path:
            attr = schema.attribute(subtable_name)
            assert attr.table is not None
            schema = attr.table
        return schema

    # -- statements -----------------------------------------------------------

    def execute_insert(self, statement: ast.SubInsertStatement) -> int:
        from repro.database import _literal_to_plain

        target = statement.target
        if (
            len(target.steps) != 1
            or target.steps[0].name is None
            or target.has_subscript
        ):
            raise ExecutionError(
                "INSERT targets one subtable of a bound variable, e.g. "
                "y.MEMBERS"
            )
        subtable_name = target.steps[0].name
        bindings = self._enumerate(statement.ranges, statement.where)
        inserted = 0
        for binding in bindings:
            owner = binding.info.get(target.var)
            if owner is None:
                raise ExecutionError(f"unknown tuple variable {target.var!r}")
            entry = self._db.catalog.table(owner.table)
            element_schema = self._element_schema(entry.schema, owner.path)
            attr = element_schema.attribute(subtable_name)
            if not attr.is_table:
                raise ExecutionError(f"{subtable_name!r} is not a subtable")
            assert attr.table is not None
            rows = [_literal_to_plain(row, attr.table) for row in statement.rows]

            def apply(obj, path=owner.path, rows=rows) -> None:
                for row in rows:
                    obj.insert_element(list(path), subtable_name, row)

            self._db.update(owner.table, owner.tid, apply)
            inserted += len(rows)
        return inserted

    def execute_delete(self, statement: ast.SubDeleteStatement) -> int:
        bindings = self._enumerate(statement.ranges, statement.where)
        per_object: dict[tuple[str, TID], list[tuple[tuple[str, int], ...]]] = {}
        for binding in bindings:
            target = binding.info.get(statement.var)
            if target is None:
                raise ExecutionError(f"unknown tuple variable {statement.var!r}")
            if not target.path:
                # the variable ranges over a stored table: whole-tuple delete
                self._db.delete(target.table, target.tid)
                continue
            per_object.setdefault((target.table, target.tid), []).append(target.path)
        deleted = sum(1 for b in bindings)
        for (table, tid), paths in per_object.items():
            # reverse-lexicographic order: children and later siblings go
            # first so earlier positions stay valid
            ordered = sorted(
                set(paths),
                key=lambda p: tuple(i for _n, i in p),
                reverse=True,
            )

            def apply(obj, ordered=ordered) -> None:
                for path in ordered:
                    prefix, (subtable_name, position) = list(path[:-1]), path[-1]
                    obj.delete_element(prefix, subtable_name, position)

            self._db.update(table, tid, apply)
        return deleted

    def execute_update(self, statement: ast.SubUpdateStatement) -> int:
        bindings = self._enumerate(statement.ranges, statement.where)
        assignments = [
            (name, _compile_expression(expr)) for name, expr in statement.assignments
        ]
        executor = self._db._executor
        # one write per object: under MVCC a write moves the object to a
        # new version, so a second write through the old TID would miss it
        per_object: dict[tuple[str, TID], list[tuple[tuple, dict[str, Any]]]] = {}
        for binding in bindings:
            target = binding.info.get(statement.var)
            if target is None:
                raise ExecutionError(f"unknown tuple variable {statement.var!r}")
            entry = self._db.catalog.table(target.table)
            element_schema = self._element_schema(entry.schema, target.path)
            changes: dict[str, Any] = {}
            for name, value_of in assignments:
                attr = element_schema.attribute(name)
                if not attr.is_atomic:
                    raise ExecutionError(
                        f"UPDATE assigns atomic attributes; {name!r} is a subtable"
                    )
                changes[name] = value_of(executor, binding.env)
            per_object.setdefault((target.table, target.tid), []).append(
                (target.path, changes)
            )
        for (table, tid), edits in per_object.items():
            if not edits[0][0]:
                # the variable ranges over a stored table: one atom write
                merged: dict[str, Any] = {}
                for _path, changes in edits:
                    merged.update(changes)
                self._db.update(table, tid, merged)
                continue

            def apply(obj, edits=edits) -> None:
                for path, changes in edits:
                    obj.update_atoms(list(path), changes)

            self._db.update(table, tid, apply)
        return len(bindings)
