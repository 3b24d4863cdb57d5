"""Tuple names (Section 4.3): system-generated keys as hierarchical
addresses.

T-names exist for

* whole complex objects — the root MD subtuple's TID (``U`` in Fig 8);
* complex subobjects — the path to the data subtuple holding their
  first-level atomic values (``V``);
* flat subobjects — exactly like an index address (``T``);
* **subtables** — the path to the subtable's *MD subtuple* (``W``, ``X``).
  This is the one place addresses may reference MD subtuples, which is why
  subtable t-names "are not allowed as i-addresses" (the paper's closing
  remark of Section 4.3).

Because subtable t-names address MD subtuples, they exist only under
layouts that give subtables their own MD subtuples (SS1 and SS3 — another
argument for AIM-II's choice of SS3); under SS2 requesting one raises
:class:`~repro.errors.TupleNameError`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import TupleNameError
from repro.model.schema import TableSchema
from repro.model.values import TableValue, TupleValue
from repro.storage.complex_object import ComplexObjectManager, OpenObject, SubtablePath
from repro.storage.minidirectory import DecodedElement, DecodedSubtable
from repro.storage.tid import MiniTID, TID


class TupleNameKind(enum.Enum):
    OBJECT = "object"
    SUBOBJECT = "subobject"
    SUBTABLE = "subtable"


@dataclass(frozen=True)
class TupleName:
    """A hierarchical address usable as a persistent system key."""

    kind: TupleNameKind
    root: TID
    components: tuple[MiniTID, ...] = ()

    def encode(self) -> str:
        """A printable form applications can store and pass back."""
        parts = [f"{self.kind.value}", f"{self.root.page}:{self.root.slot}"]
        parts += [f"{m.local_page}:{m.slot}" for m in self.components]
        return "@" + "/".join(parts)

    @classmethod
    def decode(cls, text: str) -> "TupleName":
        match = re.fullmatch(r"@(\w+)((?:/\d+:\d+)+)", text)
        if not match:
            raise TupleNameError(f"malformed tuple name {text!r}")
        try:
            kind = TupleNameKind(match.group(1))
        except ValueError:
            raise TupleNameError(f"unknown tuple-name kind in {text!r}") from None
        pairs = [
            tuple(int(x) for x in chunk.split(":"))
            for chunk in match.group(2).strip("/").split("/")
        ]
        root = TID(*pairs[0])
        components = tuple(MiniTID(*p) for p in pairs[1:])
        return cls(kind=kind, root=root, components=components)

    def __str__(self) -> str:
        return self.encode()


class TupleNameService:
    """Creates and resolves t-names against one NF2 table's objects."""

    def __init__(self, manager: ComplexObjectManager, schema: TableSchema):
        self._manager = manager
        self._schema = schema

    # -- creating names ----------------------------------------------------------

    def name_of_object(self, root_tid: TID) -> TupleName:
        return TupleName(kind=TupleNameKind.OBJECT, root=root_tid)

    def name_of_subobject(self, obj: OpenObject, path: SubtablePath) -> TupleName:
        """The t-name of the (sub)object reached by *path* — the data
        subtuples along the way are the components (Fig 8's V and T)."""
        if not path:
            return self.name_of_object(obj.root_tid)
        components: list[MiniTID] = []
        schema = obj.schema
        element = obj.decoded
        for name, position in path:
            index = OpenObject._subtable_index(schema, name)
            attr = schema.table_attributes[index]
            assert attr.table is not None
            schema = attr.table
            element = element.subtables[index].elements[position]
            components.append(element.data)
        return TupleName(
            kind=TupleNameKind.SUBOBJECT,
            root=obj.root_tid,
            components=tuple(components),
        )

    def name_of_subtable(
        self, obj: OpenObject, path: SubtablePath, subtable_name: str
    ) -> TupleName:
        """The t-name of a subtable instance — ends at its MD subtuple
        (Fig 8's W and X); unavailable under SS2."""
        components: list[MiniTID] = []
        schema = obj.schema
        element = obj.decoded
        for name, position in path:
            index = OpenObject._subtable_index(schema, name)
            attr = schema.table_attributes[index]
            assert attr.table is not None
            schema = attr.table
            element = element.subtables[index].elements[position]
            components.append(element.data)
        index = OpenObject._subtable_index(schema, subtable_name)
        subtable = element.subtables[index]
        if subtable.md is None:
            raise TupleNameError(
                f"storage structure {self._manager.structure.value} has no "
                "MD subtuples for subtables; subtable t-names need SS1 or SS3"
            )
        components.append(subtable.md)
        return TupleName(
            kind=TupleNameKind.SUBTABLE,
            root=obj.root_tid,
            components=tuple(components),
        )

    # -- resolving names ----------------------------------------------------------------

    def resolve(self, name: TupleName) -> Union[TupleValue, TableValue]:
        """Dereference a t-name to the current value it identifies."""
        obj = self._manager.open(name.root, self._schema)
        if name.kind is TupleNameKind.OBJECT:
            return obj.materialize()
        if name.kind is TupleNameKind.SUBOBJECT:
            schema, element = self._locate_element(obj, name.components)
            return obj.materialize_element(schema, element)
        # SUBTABLE: all but the last component identify subobjects; the last
        # is the subtable's MD subtuple.
        schema, element = self._locate_element(obj, name.components[:-1])
        target = name.components[-1]
        for attr, subtable in zip(schema.table_attributes, element.subtables):
            if subtable.md == target:
                assert attr.table is not None
                out = TableValue(attr.table)
                with obj.space.reading():
                    out.rows.extend(
                        obj.materialize_element(attr.table, child)
                        for child in subtable.elements
                    )
                return out
        raise TupleNameError(f"dangling subtable t-name {name}")

    def _locate_element(
        self, obj: OpenObject, components: tuple[MiniTID, ...]
    ) -> tuple[TableSchema, DecodedElement]:
        """Follow data-subtuple components down the decoded tree."""
        schema = obj.schema
        element = obj.decoded
        for component in components:
            found: Optional[tuple[TableSchema, DecodedElement]] = None
            for attr, subtable in zip(schema.table_attributes, element.subtables):
                assert attr.table is not None
                for child in subtable.elements:
                    if child.data == component:
                        found = (attr.table, child)
                        break
                if found:
                    break
            if found is None:
                raise TupleNameError(
                    f"dangling tuple name: no subobject with data subtuple "
                    f"{component}"
                )
            schema, element = found
        return schema, element
