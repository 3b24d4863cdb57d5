"""Complex-object storage: store / load / navigate / update / delete.

A stored complex object is:

* one **root MD subtuple** — a segment-level record (stable TID; this is
  what indexes and tuple names reference) holding the page list (local
  address space) and the root pointer groups;
* **data subtuples** and **inner MD subtuples** — Mini-TID-addressed records
  clustered on the object's own pages.

Partial access never touches more than it needs: navigation reads only MD
subtuples, attribute updates rewrite only one data subtuple, and structural
edits rewrite only MD subtuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.errors import RecordNotFoundError, StorageError
from repro.model.schema import TableSchema
from repro.obs import METRICS
from repro.model.values import TableValue, TupleValue
from repro.storage.address_space import MD_POOL, LocalAddressSpace
from repro.storage.minidirectory import (
    DecodedElement,
    DecodedSubtable,
    MiniDirectoryCodec,
    StorageStructure,
    get_codec,
)
from repro.storage.segment import Segment
from repro.storage.subtuple import (
    data_layout,
    decode_root_md,
    encode_data_subtuple,
    encode_root_md,
    subtuple_kind,
    KIND_ROOT,
)
from repro.storage.tid import TID, MiniTID

#: A path into a complex object: (subtable name, element position) pairs.
SubtablePath = Sequence[tuple[str, int]]


@dataclass
class ObjectBundle:
    """A checked-out complex object: verbatim page images plus the bits of
    the root record that must be rebuilt on import.  Serializable via
    :meth:`to_bytes` / :meth:`from_bytes` for shipping to a workstation.
    """

    page_images: list[Optional[bytes]]
    page_roles: list[bool]
    root_local_page: Optional[int]
    root_slot: int
    groups_blob: bytes

    _MAGIC = b"NF2B"

    def to_bytes(self) -> bytes:
        import struct

        out = bytearray(self._MAGIC)
        out += struct.pack(
            ">HHH",
            len(self.page_images),
            0xFFFF if self.root_local_page is None else self.root_local_page,
            self.root_slot,
        )
        for image, role in zip(self.page_images, self.page_roles):
            if image is None:
                out += b"\x00"
            else:
                out += b"\x02" if role else b"\x01"
                out += image
        out += struct.pack(">I", len(self.groups_blob))
        out += self.groups_blob
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ObjectBundle":
        import struct

        from repro.storage.constants import PAGE_SIZE

        if data[:4] != cls._MAGIC:
            raise StorageError("not an NF2 object bundle")
        count, root_local, root_slot = struct.unpack_from(">HHH", data, 4)
        offset = 10
        images: list[Optional[bytes]] = []
        roles: list[bool] = []
        for _ in range(count):
            marker = data[offset]
            offset += 1
            if marker == 0:
                images.append(None)
                roles.append(False)
            else:
                images.append(bytes(data[offset:offset + PAGE_SIZE]))
                roles.append(marker == 2)
                offset += PAGE_SIZE
        (blob_length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        blob = bytes(data[offset:offset + blob_length])
        return cls(
            page_images=images,
            page_roles=roles,
            root_local_page=None if root_local == 0xFFFF else root_local,
            root_slot=root_slot,
            groups_blob=blob,
        )


class ComplexObjectManager:
    """Manages the complex objects of one NF2 table."""

    def __init__(self, segment: Segment, structure: StorageStructure = StorageStructure.SS3):
        self._segment = segment
        self._codec: MiniDirectoryCodec = get_codec(structure)

    @property
    def structure(self) -> StorageStructure:
        return self._codec.structure

    @property
    def segment(self) -> Segment:
        return self._segment

    # ------------------------------------------------------------------ store

    def store(self, schema: TableSchema, value: TupleValue) -> TID:
        """Store one complex object; returns the TID of its root MD
        subtuple."""
        space = LocalAddressSpace(self._segment)
        groups, _decoded = self._codec.store_object(space, schema, value)
        return place_root(
            self._segment, space,
            lambda: encode_root_md(space.page_list, groups, space.page_roles),
        )

    # ------------------------------------------------------------------- read

    def open(self, root_tid: TID, schema: TableSchema) -> "OpenObject":
        """Decode the object's structure (MD subtuples only — no data
        pages are touched)."""
        if METRICS.enabled:
            METRICS.inc("storage.objects_opened")
        payload = self._segment.read_record(root_tid)
        if subtuple_kind(payload) != KIND_ROOT:
            raise StorageError(f"{root_tid} is not a root MD subtuple")
        page_list, groups, page_roles = decode_root_md(payload)
        space = LocalAddressSpace(self._segment, page_list, page_roles)
        with space.reading():
            decoded = self._codec.decode_object(space, schema, groups)
        return OpenObject(self, root_tid, schema, space, decoded)

    def load(self, root_tid: TID, schema: TableSchema) -> TupleValue:
        """Materialize the whole complex object."""
        return self.open(root_tid, schema).materialize()

    def load_lazy(self, root_tid: TID, schema: TableSchema) -> TupleValue:
        """Open the object and wrap it as a tuple that decodes data
        subtuples on first access (root atomics as one read, each
        first-level subtable on demand) — see ``storage/lazy.py``."""
        from repro.storage.lazy import LazyTupleValue

        if METRICS.enabled:
            METRICS.inc("exec.lazy_rows")
        return LazyTupleValue(self.open(root_tid, schema))

    # ----------------------------------------------------------------- delete

    def delete(self, root_tid: TID, schema: TableSchema) -> None:
        """Delete a whole complex object and release its pages."""
        obj = self.open(root_tid, schema)
        _delete_subtree(obj.space, obj.decoded)
        self._segment.delete_record(root_tid)
        for page_no in list(obj.space.pages):
            live = _live_records(self._segment, page_no)
            if live == 0 and self._segment.owns(page_no):
                self._segment.free_page(page_no)

    # ------------------------------------------------------------- relocation

    def copy_object(self, root_tid: TID, schema: TableSchema) -> TID:
        """Relocate (check out) an object at the *page level*: a check-out
        and check-in within this segment.

        Pages are copied verbatim and only the page list in the new root MD
        subtuple differs — no D or C pointer is touched, exactly the
        advantage Section 4.1 claims for Mini TIDs.
        """
        return self.import_object(self.export_object(root_tid))

    # -------------------------------------------------------- check-out / in

    def export_object(self, root_tid: TID) -> "ObjectBundle":
        """Check out a complex object as a self-contained page bundle.

        Pages are exported byte-for-byte: because every D/C pointer is a
        *local* Mini TID, the bundle is position-independent — exactly the
        paper's "sent to a workstation" scenario.  Only the page list must
        be rebuilt on import.
        """
        payload = self._segment.read_record(root_tid)
        page_list, groups, page_roles = decode_root_md(payload)
        buffer = self._segment.buffer
        images: list[Optional[bytes]] = []
        root_local: Optional[int] = None
        for index, page_no in enumerate(page_list):
            if page_no is None:
                images.append(None)
                continue
            page = buffer.fetch(page_no)
            try:
                images.append(bytes(page.buffer))
            finally:
                buffer.unpin(page_no)
            if page_no == root_tid.page:
                root_local = index
        from repro.storage.subtuple import encode_pointer_groups

        return ObjectBundle(
            page_images=images,
            page_roles=list(page_roles),
            root_local_page=root_local,
            root_slot=root_tid.slot,
            groups_blob=encode_pointer_groups(groups),
        )

    def import_object(self, bundle: "ObjectBundle") -> TID:
        """Check a bundle in (into this manager's segment); returns the new
        root TID.  No subtuple pointer is rewritten."""
        from repro.storage.subtuple import decode_pointer_groups

        buffer = self._segment.buffer
        new_page_list: list[Optional[int]] = []
        for image in bundle.page_images:
            if image is None:
                new_page_list.append(None)
                continue
            page_no = self._segment.allocate_page()
            page = buffer.fetch(page_no, write=True)
            try:
                page.buffer[:] = image
                free = page.free_space
            finally:
                buffer.unpin(page_no, dirty=True)
            self._segment._free_map[page_no] = free
            new_page_list.append(page_no)
        # drop the stale copy of the source root record
        if bundle.root_local_page is not None:
            home = new_page_list[bundle.root_local_page]
            assert home is not None
            page = buffer.fetch(home, write=True)
            try:
                page.delete(bundle.root_slot)
                self._segment._free_map[home] = page.free_space
            finally:
                buffer.unpin(home, dirty=True)
        groups, _offset = decode_pointer_groups(bundle.groups_blob, 0)
        payload = encode_root_md(new_page_list, groups, bundle.page_roles)
        live = [p for p in new_page_list if p is not None]
        md_pages = [
            p for p, is_md in zip(new_page_list, bundle.page_roles)
            if p is not None and is_md
        ]
        return self._segment.insert_record(payload, preferred_pages=md_pages + live)

    # ---------------------------------------------------------------- metrics

    def object_pages(self, root_tid: TID) -> list[int]:
        payload = self._segment.read_record(root_tid)
        page_list, _groups, _roles = decode_root_md(payload)
        return [p for p in page_list if p is not None]

    def statistics(self, root_tid: TID, schema: TableSchema) -> dict:
        """Size accounting for the storage-structure benchmarks."""
        payload = self._segment.read_record(root_tid)
        obj = self.open(root_tid, schema)
        md_count = self._codec.md_subtuple_count(obj.decoded)
        md_bytes = len(payload)
        data_count = 0
        data_bytes = 0

        def visit(element: DecodedElement) -> None:
            nonlocal md_bytes, data_count, data_bytes
            data_count += 1
            data_bytes += len(obj.space.read(element.data))
            if element.md is not None:
                md_bytes += len(obj.space.read(element.md))
            for subtable in element.subtables:
                if subtable.md is not None:
                    md_bytes += len(obj.space.read(subtable.md))
                for child in subtable.elements:
                    visit(child)

        visit(obj.decoded)
        return {
            "structure": self.structure.value,
            "md_subtuples": md_count,
            "md_bytes": md_bytes,
            "data_subtuples": data_count,
            "data_bytes": data_bytes,
            "pages": len(obj.space.pages),
        }


class OpenObject:
    """A decoded complex object: navigation and partial operations.

    Navigation methods read *only* MD subtuples; data subtuples are read
    on demand (:meth:`read_atoms`) — the structure/data separation of
    Section 4.1.
    """

    def __init__(
        self,
        manager: ComplexObjectManager,
        root_tid: TID,
        schema: TableSchema,
        space: LocalAddressSpace,
        decoded: DecodedElement,
    ):
        self._manager = manager
        self.root_tid = root_tid
        self.schema = schema
        self.space = space
        self.decoded = decoded

    # -- navigation ---------------------------------------------------------

    def resolve(self, path: SubtablePath) -> tuple[TableSchema, DecodedElement]:
        """Follow (subtable, position) pairs down to an element."""
        schema = self.schema
        element = self.decoded
        for name, position in path:
            index = self._subtable_index(schema, name)
            subtable = element.subtables[index]
            if not 0 <= position < len(subtable.elements):
                raise RecordNotFoundError(
                    f"subtable {name!r} has no element at position {position}"
                )
            attr = schema.table_attributes[index]
            assert attr.table is not None
            schema = attr.table
            element = subtable.elements[position]
        return schema, element

    def resolve_subtable(
        self, path: SubtablePath, name: str
    ) -> tuple[TableSchema, DecodedSubtable]:
        schema, element = self.resolve(path)
        index = self._subtable_index(schema, name)
        attr = schema.table_attributes[index]
        assert attr.table is not None
        return attr.table, element.subtables[index]

    @staticmethod
    def _subtable_index(schema: TableSchema, name: str) -> int:
        for index, attr in enumerate(schema.table_attributes):
            if attr.name == name:
                return index
        raise StorageError(f"{schema.name!r} has no subtable {name!r}")

    # -- data access -----------------------------------------------------------

    def read_atoms(self, schema: TableSchema, element: DecodedElement) -> dict:
        """Read one data subtuple: the element's first-level atomic
        values."""
        if METRICS.enabled:
            METRICS.inc("storage.data_subtuple_decodes")
        payload = self.space.read(element.data)
        layout = data_layout(schema.attributes)
        return dict(zip(layout.names, layout.decode(payload, 0, len(payload))))

    def materialize_element(
        self, schema: TableSchema, element: DecodedElement
    ) -> TupleValue:
        """The element as a value, read a page at a time."""
        with self.space.reading():
            return self._materialize(schema, element)

    def _materialize(self, schema: TableSchema, element: DecodedElement) -> TupleValue:
        values: dict = self.read_atoms(schema, element)
        for attr, subtable in zip(schema.table_attributes, element.subtables):
            assert attr.table is not None
            inner = TableValue(attr.table)
            for child in subtable.elements:
                inner.rows.append(self._materialize(attr.table, child))
            values[attr.name] = inner
        # straight from storage decode: schema-complete and type-checked
        return TupleValue.trusted(schema, values)

    def materialize(self) -> TupleValue:
        return self.materialize_element(self.schema, self.decoded)

    # -- partial updates -----------------------------------------------------------

    def update_atoms(self, path: SubtablePath, updates: dict) -> None:
        """Update atomic attribute values of one (sub)object — rewrites a
        single data subtuple; its Mini TID stays stable."""
        schema, element = self.resolve(path)
        current = self.read_atoms(schema, element)
        for name, value in updates.items():
            attr = schema.attribute(name)
            if not attr.is_atomic:
                raise StorageError(f"{name!r} is not an atomic attribute")
            assert attr.atomic_type is not None
            current[name] = attr.atomic_type.validate(value)
        payload = encode_data_subtuple(
            schema.attributes,
            tuple(current[a.name] for a in schema.atomic_attributes),
        )
        self.space.update(element.data, payload)
        self._flush_root_if_moved()

    def insert_element(
        self,
        path: SubtablePath,
        subtable_name: str,
        value: Union[TupleValue, dict, tuple],
        position: Optional[int] = None,
    ) -> DecodedElement:
        """Insert a new subobject into a subtable.

        *position* matters for ordered subtables (MD entry order encodes
        list order); ``None`` appends.
        """
        element_schema, subtable = self.resolve_subtable(path, subtable_name)
        row = TupleValue.from_plain(element_schema, value)
        codec = self._manager._codec
        new_element = codec.store_subtree(self.space, element_schema, row)
        if position is None:
            subtable.elements.append(new_element)
        else:
            subtable.elements.insert(position, new_element)
        self._rewrite_structure()
        return new_element

    def delete_element(self, path: SubtablePath, subtable_name: str, position: int) -> None:
        """Delete one subobject (recursively) from a subtable."""
        _schema, subtable = self.resolve_subtable(path, subtable_name)
        if not 0 <= position < len(subtable.elements):
            raise RecordNotFoundError(
                f"subtable {subtable_name!r} has no element at position {position}"
            )
        victim = subtable.elements.pop(position)
        _delete_subtree(self.space, victim)
        self._rewrite_structure()

    # -- internal ----------------------------------------------------------------------

    def _rewrite_structure(self) -> None:
        from repro.storage.address_space import MD_POOL

        groups = self._manager._codec.refresh_structure(
            self.space, self.schema, self.decoded
        )
        payload = encode_root_md(
            self.space.page_list, groups, self.space.page_roles
        )
        self._manager._segment.update_record(
            self.root_tid,
            payload,
            preferred_pages=self.space.pages_of(MD_POOL) + self.space.pages,
        )
        self.space.page_list_dirty = False

    def _flush_root_if_moved(self) -> None:
        """A data-subtuple update can allocate a page (forwarding); persist
        the grown page list if so."""
        if self.space.page_list_dirty:
            self._rewrite_structure()


def place_root(
    segment: Segment, space: LocalAddressSpace, encode: Callable[[], bytes]
) -> TID:
    """Insert an object's root MD subtuple, *encode()*, on one of its MD
    pages.  A fresh page joins the page list, which the root payload
    carries: hence the small fixpoint loop."""
    while True:
        payload = encode()
        needed = len(payload) + 5
        target = next(
            (p for p in space.pages_of(MD_POOL) if segment.free_space_on(p) >= needed),
            None,
        )
        if target is not None:
            return segment.insert_record_on(target, payload, 0)
        space._local_index(segment.allocate_page(), MD_POOL)


def _delete_subtree(space: LocalAddressSpace, element: DecodedElement) -> None:
    for subtable in element.subtables:
        for child in subtable.elements:
            _delete_subtree(space, child)
        if subtable.md is not None:
            space.delete(subtable.md)
    if element.md is not None:
        space.delete(element.md)
    space.delete(element.data)


def _live_records(segment: Segment, page_no: int) -> int:
    page = segment.buffer.fetch(page_no)
    try:
        return page.live_records
    finally:
        segment.buffer.unpin(page_no)
