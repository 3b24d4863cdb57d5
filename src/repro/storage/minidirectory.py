"""Mini Directories: the three storage structures of Fig 6.

A complex object's structural information lives in a tree of MD subtuples,
strictly separated from its data subtuples.  The paper analyzes three
layouts:

* **SS1** — one MD subtuple per subtable *and* per complex subobject
  (Fig 6a): symmetric, but many small nodes;
* **SS2** — MD subtuples only per complex subobject (Fig 6b): subtable
  pointer lists are folded upward into their owner's MD subtuple;
* **SS3** — MD subtuples only per subtable (Fig 6c): complex subobjects
  are folded upward into their subtable's MD subtuple as pointer groups
  ("DCC" entries).  This is the layout AIM-II chose.

Invariant (paper, Section 4.1): ``#MD(SS1) > #MD(SS3) > #MD(SS2)`` for any
object with at least one complex subobject.

All three codecs share one decoded in-memory view (:class:`DecodedElement`
/ :class:`DecodedSubtable`) so the complex-object manager, the hierarchical
index addresses, and the tuple names are layout-independent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import StorageError
from repro.obs import METRICS
from repro.model.schema import TableSchema
from repro.model.values import TableValue, TupleValue
from repro.storage.address_space import MD_POOL, LocalAddressSpace
from repro.storage.subtuple import (
    POINTER_C,
    POINTER_D,
    decode_md_subtuple,
    encode_data_subtuple,
    encode_md_subtuple,
)
from repro.storage.tid import MiniTID


class StorageStructure(enum.Enum):
    """The Fig 6 storage-structure alternatives."""

    SS1 = "SS1"
    SS2 = "SS2"
    SS3 = "SS3"


@dataclass
class DecodedElement:
    """One (sub)object: its data subtuple plus its subtables.

    ``md`` is the Mini TID of the element's own MD subtuple where the
    layout allocates one (SS1/SS2 complex subobjects), else ``None``.
    """

    data: MiniTID
    subtables: list["DecodedSubtable"] = field(default_factory=list)
    md: Optional[MiniTID] = None

    @property
    def is_flat(self) -> bool:
        return not self.subtables


@dataclass
class DecodedSubtable:
    """One subtable instance: its elements, plus its own MD subtuple where
    the layout allocates one (SS1/SS3)."""

    elements: list[DecodedElement] = field(default_factory=list)
    md: Optional[MiniTID] = None


PointerGroups = list[list[tuple[int, MiniTID]]]


class MiniDirectoryCodec:
    """Shared machinery; subclasses define the layout."""

    structure: StorageStructure

    # ------------------------------------------------------------------ store

    def store_object(
        self, space: LocalAddressSpace, schema: TableSchema, value: TupleValue
    ) -> tuple[PointerGroups, DecodedElement]:
        """Store every subtuple of *value*; return the root-MD body groups
        and the decoded tree (the root element's ``md`` stays ``None`` —
        its structure lives in the root MD subtuple)."""
        element = self._store_element(space, schema, value, is_root=True)
        return self.element_groups(schema, element), element

    def _store_element(
        self,
        space: LocalAddressSpace,
        schema: TableSchema,
        value: TupleValue,
        is_root: bool = False,
    ) -> DecodedElement:
        data_payload = encode_data_subtuple(schema.attributes, value.atomic_values())
        data_mini = space.insert(data_payload)
        subtables: list[DecodedSubtable] = []
        for attr in schema.table_attributes:
            assert attr.table is not None
            subtable_value: TableValue = value[attr.name]
            elements = [
                self._store_element(space, attr.table, row)
                for row in subtable_value
            ]
            subtables.append(self._store_subtable(space, attr.table, elements))
        element = DecodedElement(data=data_mini, subtables=subtables)
        if not is_root:
            self._finish_element(space, schema, element)
        return element

    def store_subtree(
        self, space: LocalAddressSpace, schema: TableSchema, value: TupleValue
    ) -> DecodedElement:
        """Store one new (sub)object subtree — used by partial inserts."""
        return self._store_element(space, schema, value)

    # ---------------------------------------------------------------- layout

    def _store_subtable(
        self,
        space: LocalAddressSpace,
        element_schema: TableSchema,
        elements: list[DecodedElement],
    ) -> DecodedSubtable:
        """Create the subtable node (allocating an MD subtuple if the
        layout has per-subtable MDs)."""
        raise NotImplementedError

    def _finish_element(
        self, space: LocalAddressSpace, schema: TableSchema, element: DecodedElement
    ) -> None:
        """Allocate the element's own MD subtuple if the layout has
        per-subobject MDs."""
        raise NotImplementedError

    def element_groups(self, schema: TableSchema, element: DecodedElement) -> PointerGroups:
        """The pointer groups describing *element* (the content of its MD
        subtuple, or of the root MD subtuple for the root element)."""
        raise NotImplementedError

    def decode_object(
        self, space: LocalAddressSpace, schema: TableSchema, root_groups: PointerGroups
    ) -> DecodedElement:
        """Rebuild the decoded tree reading *only MD subtuples* — this is
        the paper's "navigation on the structural information without
        having to access the data at all"."""
        raise NotImplementedError

    def refresh_structure(
        self, space: LocalAddressSpace, schema: TableSchema, root: DecodedElement
    ) -> PointerGroups:
        """Re-encode every MD subtuple after a structural edit of the
        decoded tree (data subtuples untouched); returns new root groups."""
        raise NotImplementedError

    # ------------------------------------------------------------- utilities

    def md_subtuple_count(self, root: DecodedElement) -> int:
        """Number of MD subtuples, *including* the root MD subtuple."""
        return 1 + _count_inner_md(root)

    @staticmethod
    def element_pointer(element_schema: TableSchema, element: DecodedElement) -> tuple[int, MiniTID]:
        """How a subtable references one element in SS1/SS2: a C pointer to
        its MD subtuple if complex, a D pointer to its data subtuple if
        flat."""
        if element_schema.table_attributes:
            if element.md is None:
                raise StorageError("complex element lacks its MD subtuple")
            return (POINTER_C, element.md)
        return (POINTER_D, element.data)


def _count_inner_md(element: DecodedElement) -> int:
    count = 1 if element.md is not None else 0
    for subtable in element.subtables:
        if subtable.md is not None:
            count += 1
        for child in subtable.elements:
            count += _count_inner_md(child)
    return count


# ---------------------------------------------------------------------------
# SS1 — MD subtuples for subtables AND complex subobjects (Fig 6a)
# ---------------------------------------------------------------------------


class SS1Codec(MiniDirectoryCodec):
    structure = StorageStructure.SS1

    def _store_subtable(self, space, element_schema, elements):
        pointers = [self.element_pointer(element_schema, e) for e in elements]
        md = space.insert(encode_md_subtuple([pointers]), pool=MD_POOL)
        return DecodedSubtable(elements=elements, md=md)

    def _finish_element(self, space, schema, element):
        if not schema.table_attributes:
            return  # flat subobjects have no MD subtuple
        element.md = space.insert(
            encode_md_subtuple(self.element_groups(schema, element)), pool=MD_POOL
        )

    def element_groups(self, schema, element):
        group = [(POINTER_D, element.data)]
        for subtable in element.subtables:
            assert subtable.md is not None
            group.append((POINTER_C, subtable.md))
        return [group]

    def decode_object(self, space, schema, root_groups):
        return self._decode_element(space, schema, root_groups, md=None)

    def _decode_element(self, space, schema, groups, md):
        (group,) = groups
        tag, data = group[0]
        _expect(tag, POINTER_D)
        element = DecodedElement(data=data, md=md)
        for attr, (tag, subtable_md) in zip(schema.table_attributes, group[1:]):
            _expect(tag, POINTER_C)
            assert attr.table is not None
            (pointers,) = decode_md_subtuple(space.read(subtable_md))
            elements = []
            for ptr_tag, mini in pointers:
                if attr.table.table_attributes:
                    _expect(ptr_tag, POINTER_C)
                    child_groups = decode_md_subtuple(space.read(mini))
                    elements.append(
                        self._decode_element(space, attr.table, child_groups, md=mini)
                    )
                else:
                    _expect(ptr_tag, POINTER_D)
                    elements.append(DecodedElement(data=mini))
            element.subtables.append(DecodedSubtable(elements=elements, md=subtable_md))
        return element

    def refresh_structure(self, space, schema, root):
        self._refresh_element(space, schema, root, is_root=True)
        return self.element_groups(schema, root)

    def _refresh_element(self, space, schema, element, is_root=False):
        for attr, subtable in zip(schema.table_attributes, element.subtables):
            assert attr.table is not None
            for child in subtable.elements:
                self._refresh_element(space, attr.table, child)
            pointers = [self.element_pointer(attr.table, e) for e in subtable.elements]
            payload = encode_md_subtuple([pointers])
            if subtable.md is None:
                subtable.md = space.insert(payload, pool=MD_POOL)
            else:
                space.update(subtable.md, payload)
        if is_root or not schema.table_attributes:
            return
        payload = encode_md_subtuple(self.element_groups(schema, element))
        if element.md is None:
            element.md = space.insert(payload, pool=MD_POOL)
        else:
            space.update(element.md, payload)


# ---------------------------------------------------------------------------
# SS2 — MD subtuples only for complex subobjects (Fig 6b)
# ---------------------------------------------------------------------------


class SS2Codec(MiniDirectoryCodec):
    structure = StorageStructure.SS2

    def _store_subtable(self, space, element_schema, elements):
        return DecodedSubtable(elements=elements, md=None)

    def _finish_element(self, space, schema, element):
        if not schema.table_attributes:
            return
        element.md = space.insert(
            encode_md_subtuple(self.element_groups(schema, element)), pool=MD_POOL
        )

    def element_groups(self, schema, element):
        groups: PointerGroups = [[(POINTER_D, element.data)]]
        for attr, subtable in zip(schema.table_attributes, element.subtables):
            assert attr.table is not None
            groups.append(
                [self.element_pointer(attr.table, e) for e in subtable.elements]
            )
        return groups

    def decode_object(self, space, schema, root_groups):
        return self._decode_element(space, schema, root_groups, md=None)

    def _decode_element(self, space, schema, groups, md):
        tag, data = groups[0][0]
        _expect(tag, POINTER_D)
        element = DecodedElement(data=data, md=md)
        for attr, pointers in zip(schema.table_attributes, groups[1:]):
            assert attr.table is not None
            elements = []
            for ptr_tag, mini in pointers:
                if attr.table.table_attributes:
                    _expect(ptr_tag, POINTER_C)
                    child_groups = decode_md_subtuple(space.read(mini))
                    elements.append(
                        self._decode_element(space, attr.table, child_groups, md=mini)
                    )
                else:
                    _expect(ptr_tag, POINTER_D)
                    elements.append(DecodedElement(data=mini))
            element.subtables.append(DecodedSubtable(elements=elements, md=None))
        return element

    def refresh_structure(self, space, schema, root):
        self._refresh_element(space, schema, root, is_root=True)
        return self.element_groups(schema, root)

    def _refresh_element(self, space, schema, element, is_root=False):
        for attr, subtable in zip(schema.table_attributes, element.subtables):
            assert attr.table is not None
            for child in subtable.elements:
                self._refresh_element(space, attr.table, child)
        if is_root or not schema.table_attributes:
            return
        payload = encode_md_subtuple(self.element_groups(schema, element))
        if element.md is None:
            element.md = space.insert(payload, pool=MD_POOL)
        else:
            space.update(element.md, payload)


# ---------------------------------------------------------------------------
# SS3 — MD subtuples only for subtables (Fig 6c, chosen for AIM-II)
# ---------------------------------------------------------------------------


class SS3Codec(MiniDirectoryCodec):
    structure = StorageStructure.SS3

    def _store_subtable(self, space, element_schema, elements):
        groups = [self._element_group(element_schema, e) for e in elements]
        md = space.insert(encode_md_subtuple(groups), pool=MD_POOL)
        return DecodedSubtable(elements=elements, md=md)

    def _finish_element(self, space, schema, element):
        # SS3 never allocates per-subobject MD subtuples.
        return

    def _element_group(
        self, element_schema: TableSchema, element: DecodedElement
    ) -> list[tuple[int, MiniTID]]:
        """One "DCC..." group: D to the element's data subtuple, then C to
        each of its subtables' MD subtuples."""
        group = [(POINTER_D, element.data)]
        for subtable in element.subtables:
            assert subtable.md is not None
            group.append((POINTER_C, subtable.md))
        return group

    def element_groups(self, schema, element):
        return [self._element_group(schema, element)]

    def decode_object(self, space, schema, root_groups):
        if len(root_groups) != 1:
            raise StorageError("SS3 root MD subtuple holds one pointer group")
        return self._decode_element(space, schema, root_groups[0])

    def _decode_element(self, space, schema, group):
        if len(group) != 1 + len(schema.table_attributes):
            raise StorageError(
                f"MD pointer group of {len(group)} pointers does not match "
                f"{schema.name!r}"
            )
        tag, data = group[0]
        _expect(tag, POINTER_D)
        element = DecodedElement(data=data, md=None)
        for attr, (tag, subtable_md) in zip(schema.table_attributes, group[1:]):
            _expect(tag, POINTER_C)
            assert attr.table is not None
            groups = decode_md_subtuple(space.read(subtable_md))
            elements = [
                self._decode_element(space, attr.table, child_group)
                for child_group in groups
            ]
            element.subtables.append(DecodedSubtable(elements=elements, md=subtable_md))
        return element

    def refresh_structure(self, space, schema, root):
        self._refresh_element(space, schema, root)
        return self.element_groups(schema, root)

    def _refresh_element(self, space, schema, element):
        for attr, subtable in zip(schema.table_attributes, element.subtables):
            assert attr.table is not None
            for child in subtable.elements:
                self._refresh_element(space, attr.table, child)
            groups = [self._element_group(attr.table, e) for e in subtable.elements]
            payload = encode_md_subtuple(groups)
            if subtable.md is None:
                subtable.md = space.insert(payload, pool=MD_POOL)
            else:
                space.update(subtable.md, payload)


def _expect(tag: int, wanted: int) -> None:
    """Validate a pointer tag while decoding — every call is one D or C
    pointer dereference during Mini-Directory navigation, which is exactly
    the work the paper's Section 4.1/4.2 analysis counts."""
    if METRICS.enabled:
        METRICS.inc(
            "storage.d_pointer_derefs"
            if wanted == POINTER_D
            else "storage.c_pointer_derefs"
        )
    if tag != wanted:
        kind = {POINTER_C: "C", POINTER_D: "D"}.get(wanted, "?")
        raise StorageError(f"corrupt Mini Directory: expected a {kind} pointer")


_CODECS = {
    StorageStructure.SS1: SS1Codec(),
    StorageStructure.SS2: SS2Codec(),
    StorageStructure.SS3: SS3Codec(),
}


def get_codec(structure: StorageStructure) -> MiniDirectoryCodec:
    return _CODECS[structure]
