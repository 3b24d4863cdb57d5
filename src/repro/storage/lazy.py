"""Lazily-decoded complex objects for query reads.

The paper's structure/data separation (Section 4.1) stores an object's
shape in MD subtuples and its values in data subtuples.  ``OpenObject``
already decodes only the structure; :class:`LazyTupleValue` carries that
separation into the executor's value model: the root's first-level
atomics are read on the first atomic-attribute access (one data
subtuple), and each first-level subtable materializes on its first
access.  A query whose predicate was settled on index information alone
(Section 4.2) and whose projection touches only root atomics therefore
never decodes the object's nested data pages.

Every query read of current rows produces these
(``ObjectStore.fetch(tid, lazy=True)``); DML, join probes and snapshot reads
fetch eagerly.
"""

from __future__ import annotations

from typing import Any

from repro.errors import DataError
from repro.model.values import TableValue, TupleValue


class LazyTupleValue(TupleValue):
    """A :class:`TupleValue` over an open complex object that decodes
    data subtuples on first access.

    Once an attribute is loaded it lives in ``_values`` like any eager
    tuple's; whole-value operations (``to_plain``, ``canonical``,
    ``replace``, equality, hashing) force full materialization first.
    """

    __slots__ = ("_obj", "_atoms_loaded")

    def __init__(self, obj: Any):
        # deliberately NOT calling TupleValue.__init__ — there is nothing
        # to validate yet; values fill in as data subtuples decode
        self.schema = obj.schema
        self._values = {}
        self._obj = obj
        self._atoms_loaded = False

    # -- lazy loading --------------------------------------------------------

    def _ensure_atoms(self) -> None:
        if not self._atoms_loaded:
            obj = self._obj
            self._values.update(obj.read_atoms(self.schema, obj.decoded))
            self._atoms_loaded = True

    def _materialize_subtable(self, index: int) -> TableValue:
        obj = self._obj
        attr = self.schema.table_attributes[index]
        assert attr.table is not None
        subtable = obj.decoded.subtables[index]
        inner = TableValue(attr.table)
        rows = inner.rows
        # one read scope for the whole subtable: each page is pinned once
        with obj.space.reading():
            for child in subtable.elements:
                rows.append(obj.materialize_element(attr.table, child))
        self._values[attr.name] = inner
        return inner

    def _force(self) -> None:
        """Materialize everything (whole-value operations need it)."""
        self._ensure_atoms()
        values = self._values
        for index, attr in enumerate(self.schema.table_attributes):
            if attr.name not in values:
                self._materialize_subtable(index)

    # -- TupleValue API ------------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        values = self._values
        if name in values:
            return values[name]
        schema = self.schema
        if not schema.has_attribute(name):
            raise DataError(
                f"tuple of {schema.name!r} has no attribute {name!r}"
            )
        if schema.attribute(name).is_atomic:
            self._ensure_atoms()
            return self._values[name]
        for index, attr in enumerate(schema.table_attributes):
            if attr.name == name:
                return self._materialize_subtable(index)
        raise DataError(  # pragma: no cover - has_attribute rules this out
            f"tuple of {schema.name!r} has no attribute {name!r}"
        )

    def get(self, name: str, default: Any = None) -> Any:
        if self.schema.has_attribute(name):
            return self[name]
        return default

    def atomic_values(self) -> tuple:
        self._ensure_atoms()
        return super().atomic_values()

    def replace(self, **updates: Any) -> TupleValue:
        self._force()
        return super().replace(**updates)

    def to_plain(self) -> dict[str, Any]:
        self._force()
        return super().to_plain()

    def canonical(self) -> tuple:
        self._force()
        return super().canonical()

    def __repr__(self) -> str:
        self._force()
        return super().__repr__()
