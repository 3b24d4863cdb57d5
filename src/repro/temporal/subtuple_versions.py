"""Subtuple-level time versions — the paper's temporal architecture.

Section 5: "Currently we are able to support ASOF queries ...
'Walk-through-time' queries which work on time intervals are supported at
lower system levels (subtuple manager)".  /DLW84, Lu84/ describe the
scheme: versions are kept per *subtuple*, so an update writes one small
version record instead of copying the whole complex object.

Design
------

A temporally-managed complex object keeps, in its root record,

* ``created`` / ``deleted`` timestamps for the object as a whole,
* a **version directory**: entries ``(key, valid_from, valid_to, stored)``
  where ``key`` is the Mini TID of a (data or MD) subtuple — or the ROOT
  sentinel for the root pointer groups — and ``stored`` is the Mini TID of
  a frozen copy of the superseded payload, stored in the object's own
  address space.

Mutations version only the subtuples whose bytes actually change; nothing
is ever physically deleted (structurally removed subtuples simply become
unreachable from newer MD versions), so the Mini Directory *as of T* —
reconstructed by reading each subtuple's payload version valid at T —
reaches exactly the subobjects alive at T.  This reachability argument is
what lets a later-inserted subtuple default its first version's
``valid_from`` to the object's creation time: instants before its real
birth never reach it through the MD anyway.

The space trade-off against object-level copy-on-write
(:mod:`repro.temporal.versions`) is measured in benchmark A8.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.errors import StorageError, TemporalError
from repro.model.schema import TableSchema
from repro.model.values import TupleValue
from repro.storage.address_space import MD_POOL, LocalAddressSpace
from repro.storage.complex_object import (
    ComplexObjectManager,
    OpenObject,
    SubtablePath,
    place_root,
)
from repro.storage.minidirectory import StorageStructure, get_codec
from repro.storage.segment import Segment
from repro.storage.subtuple import (
    decode_pointer_groups,
    decode_root_md,
    encode_data_subtuple,
    encode_pointer_groups,
    encode_root_md,
)
from repro.storage.tid import MiniTID, TID
from repro.temporal.versions import Timestamp, canonical_timestamp

#: subtuple kind tag of a temporal root record
KIND_TROOT = 0xE3

_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")

#: version-directory key for the root pointer groups
_ROOT_KEY = b"\xff\xff\xff\xff"

_FOREVER = float("inf")


@dataclass(frozen=True)
class VersionEntry:
    key: Optional[MiniTID]  # None = the root pointer groups
    valid_from: float
    valid_to: float
    stored: MiniTID


def _encode_timestamp(value: float) -> bytes:
    return _F64.pack(value)


def encode_temporal_root(
    created: float,
    deleted: float,
    entries: Sequence[VersionEntry],
    page_list: Sequence[Optional[int]],
    page_roles: Sequence[bool],
    groups,
) -> bytes:
    out = bytearray([KIND_TROOT])
    out += _encode_timestamp(created)
    out += _encode_timestamp(deleted)
    out += _U32.pack(len(entries))
    for entry in entries:
        out += _ROOT_KEY if entry.key is None else entry.key.encode()
        out += _encode_timestamp(entry.valid_from)
        out += _encode_timestamp(entry.valid_to)
        out += entry.stored.encode()
    out += encode_root_md(page_list, groups, page_roles)
    return bytes(out)


def decode_temporal_root(payload: bytes):
    if not payload or payload[0] != KIND_TROOT:
        raise StorageError("not a temporal root record")
    created = _F64.unpack_from(payload, 1)[0]
    deleted = _F64.unpack_from(payload, 9)[0]
    count = _U32.unpack_from(payload, 17)[0]
    offset = 21
    entries: list[VersionEntry] = []
    for _ in range(count):
        raw_key = bytes(payload[offset:offset + 4])
        key = None if raw_key == _ROOT_KEY else MiniTID.decode(raw_key)
        valid_from = _F64.unpack_from(payload, offset + 4)[0]
        valid_to = _F64.unpack_from(payload, offset + 12)[0]
        stored = MiniTID.decode(payload, offset + 20)
        entries.append(VersionEntry(key, valid_from, valid_to, stored))
        offset += 24
    page_list, groups, page_roles = decode_root_md(payload[offset:])
    return created, deleted, entries, page_list, page_roles, groups


class _AsOfSpace:
    """A read-only view of an address space at one instant: reads are
    redirected to the version valid at T."""

    def __init__(self, space: LocalAddressSpace, entries: Sequence[VersionEntry], at: float):
        self._space = space
        self._at = at
        self._redirect: dict[MiniTID, MiniTID] = {}
        for entry in entries:
            if entry.key is None:
                continue
            if entry.valid_from <= at < entry.valid_to:
                self._redirect[entry.key] = entry.stored
        self.page_list = space.page_list
        self.page_roles = space.page_roles

    def read(self, mini: MiniTID) -> bytes:
        target = self._redirect.get(mini, mini)
        return self._space.read(target)

    def translate(self, mini: MiniTID) -> TID:
        return self._space.translate(self._redirect.get(mini, mini))

    def reading(self):
        return self._space.reading()

    @property
    def pages(self):
        return self._space.pages

    def insert(self, *args, **kwargs):
        raise TemporalError("historical views are read-only")

    update = insert
    delete = insert


class TemporalObjectManager:
    """Complex-object storage with subtuple-level time versions."""

    def __init__(self, segment: Segment, structure: StorageStructure = StorageStructure.SS3):
        self._segment = segment
        self._codec = get_codec(structure)
        self._base = ComplexObjectManager(segment, structure)

    @property
    def structure(self) -> StorageStructure:
        return self._codec.structure

    @property
    def segment(self) -> Segment:
        return self._segment

    # ------------------------------------------------------------------ store

    def store(self, schema: TableSchema, value: TupleValue, at: Timestamp) -> TID:
        created = canonical_timestamp(at)
        space = LocalAddressSpace(self._segment)
        groups, _decoded = self._codec.store_object(space, schema, value)
        return place_root(
            self._segment, space,
            lambda: encode_temporal_root(
                created, _FOREVER, [], space.page_list, space.page_roles, groups
            ),
        )

    # ------------------------------------------------------------------- read

    def _root_state(self, root_tid: TID):
        payload = self._segment.read_record(root_tid)
        return decode_temporal_root(payload)

    def exists_at(self, root_tid: TID, at: Timestamp) -> bool:
        created, deleted, *_rest = self._root_state(root_tid)
        point = canonical_timestamp(at)
        return created <= point < deleted

    def open_current(self, root_tid: TID, schema: TableSchema) -> OpenObject:
        created, deleted, entries, page_list, page_roles, groups = self._root_state(root_tid)
        if deleted != _FOREVER:
            raise TemporalError(f"object {root_tid} was deleted")
        space = LocalAddressSpace(self._segment, page_list, page_roles)
        with space.reading():
            decoded = self._codec.decode_object(space, schema, groups)
        return OpenObject(self._base, root_tid, schema, space, decoded)

    def open_asof(self, root_tid: TID, schema: TableSchema, at: Timestamp) -> OpenObject:
        """A read-only view of the object as of *at*."""
        point = canonical_timestamp(at)
        created, deleted, entries, page_list, page_roles, groups = self._root_state(root_tid)
        if not created <= point < deleted:
            raise TemporalError(f"object {root_tid} did not exist at {at}")
        space = LocalAddressSpace(self._segment, page_list, page_roles)
        asof_space = _AsOfSpace(space, entries, point)
        groups_at = groups
        for entry in entries:
            if entry.key is None and entry.valid_from <= point < entry.valid_to:
                stored = space.read(entry.stored)
                groups_at, _offset = decode_pointer_groups(stored, 0)
                break
        with asof_space.reading():
            decoded = self._codec.decode_object(asof_space, schema, groups_at)
        return OpenObject(self._base, root_tid, schema, asof_space, decoded)  # type: ignore[arg-type]

    def load(self, root_tid: TID, schema: TableSchema) -> TupleValue:
        return self.open_current(root_tid, schema).materialize()

    def load_asof(self, root_tid: TID, schema: TableSchema, at: Timestamp) -> TupleValue:
        return self.open_asof(root_tid, schema, at).materialize()

    # -------------------------------------------------------------- mutations

    def update_atoms(
        self,
        root_tid: TID,
        schema: TableSchema,
        path: SubtablePath,
        updates: dict,
        at: Timestamp,
    ) -> None:
        """Version-and-update the atomic values of one (sub)object."""
        point = canonical_timestamp(at)
        created, deleted, entries, page_list, page_roles, groups = self._root_state(root_tid)
        self._check_alive(created, deleted, point, entries)
        space = LocalAddressSpace(self._segment, page_list, page_roles)
        decoded = self._codec.decode_object(space, schema, groups)
        obj = OpenObject(self._base, root_tid, schema, space, decoded)
        element_schema, element = obj.resolve(path)
        old_payload = space.read(element.data)
        current = obj.read_atoms(element_schema, element)
        for name, value in updates.items():
            attr = element_schema.attribute(name)
            if not attr.is_atomic:
                raise TemporalError(f"{name!r} is not an atomic attribute")
            assert attr.atomic_type is not None
            current[name] = attr.atomic_type.validate(value)
        new_payload = encode_data_subtuple(
            element_schema.attributes,
            tuple(current[a.name] for a in element_schema.atomic_attributes),
        )
        if new_payload == old_payload:
            return
        entries = list(entries)
        self._version_subtuple(space, entries, element.data, old_payload, created, point)
        space.update(element.data, new_payload)
        self._write_root(root_tid, created, deleted, entries, space, groups)

    def insert_element(
        self,
        root_tid: TID,
        schema: TableSchema,
        path: SubtablePath,
        subtable_name: str,
        value,
        at: Timestamp,
        position: Optional[int] = None,
    ) -> None:
        self._structural_edit(
            root_tid, schema, at,
            lambda obj: obj.insert_element(path, subtable_name, value, position),
        )

    def delete_element(
        self,
        root_tid: TID,
        schema: TableSchema,
        path: SubtablePath,
        subtable_name: str,
        position: int,
        at: Timestamp,
    ) -> None:
        def edit(obj: OpenObject) -> None:
            _schema, subtable = obj.resolve_subtable(path, subtable_name)
            if not 0 <= position < len(subtable.elements):
                raise TemporalError(
                    f"subtable {subtable_name!r} has no element {position}"
                )
            # Structural removal only: the records stay for history.
            subtable.elements.pop(position)

        self._structural_edit(root_tid, schema, at, edit)

    def delete_object(self, root_tid: TID, schema: TableSchema, at: Timestamp) -> None:
        point = canonical_timestamp(at)
        created, deleted, entries, page_list, page_roles, groups = self._root_state(root_tid)
        self._check_alive(created, deleted, point, entries)
        space = LocalAddressSpace(self._segment, page_list, page_roles)
        self._write_root(root_tid, created, point, list(entries), space, groups)

    # -------------------------------------------------------------- internals

    def _structural_edit(self, root_tid: TID, schema: TableSchema, at: Timestamp, edit) -> None:
        point = canonical_timestamp(at)
        created, deleted, entries, page_list, page_roles, groups = self._root_state(root_tid)
        self._check_alive(created, deleted, point, entries)
        space = LocalAddressSpace(self._segment, page_list, page_roles)
        decoded = self._codec.decode_object(space, schema, groups)
        obj = OpenObject(self._base, root_tid, schema, space, decoded)
        entries = list(entries)

        # Intercept MD-subtuple rewrites so superseded payloads are saved,
        # and suppress physical deletes (history needs the records).
        original_update = space.update
        original_delete = space.delete

        def versioned_update(mini: MiniTID, payload: bytes) -> None:
            old = space.read(mini)
            if old == payload:
                return
            self._version_subtuple(space, entries, mini, old, created, point)
            original_update(mini, payload)

        space.update = versioned_update  # type: ignore[method-assign]
        space.delete = lambda mini: None  # type: ignore[method-assign]
        # The edit must not rewrite the root record itself; capture the
        # refreshed groups instead.
        obj._rewrite_structure = lambda: None  # type: ignore[method-assign]
        try:
            edit(obj)
            new_groups = self._codec.refresh_structure(space, schema, obj.decoded)
        finally:
            space.update = original_update  # type: ignore[method-assign]
            space.delete = original_delete  # type: ignore[method-assign]

        if encode_pointer_groups(new_groups) != encode_pointer_groups(groups):
            # version the old root pointer groups
            stored = space.insert(encode_pointer_groups(groups), pool=MD_POOL)
            entries.append(
                VersionEntry(
                    key=None,
                    valid_from=self._last_change(entries, None, created),
                    valid_to=point,
                    stored=stored,
                )
            )
        self._write_root(root_tid, created, deleted, entries, space, new_groups)

    def _version_subtuple(
        self,
        space: LocalAddressSpace,
        entries: list[VersionEntry],
        key: MiniTID,
        old_payload: bytes,
        created: float,
        point: float,
    ) -> None:
        valid_from = self._last_change(entries, key, created)
        if point < valid_from:
            raise TemporalError("timestamps must not go backwards")
        # frozen versions keep the kind<->pool correspondence: old data
        # subtuples go to data pages, old MD subtuples to MD pages
        from repro.storage.subtuple import KIND_DATA, subtuple_kind

        pool = MD_POOL if subtuple_kind(old_payload) != KIND_DATA else False
        stored = space.insert(old_payload, pool=pool)
        entries.append(VersionEntry(key, valid_from, point, stored))

    @staticmethod
    def _last_change(entries: Sequence[VersionEntry], key: Optional[MiniTID], created: float) -> float:
        latest = created
        for entry in entries:
            if entry.key == key and entry.valid_to > latest:
                latest = entry.valid_to
        return latest

    @staticmethod
    def _check_alive(created: float, deleted: float, point: float, entries) -> None:
        if deleted != _FOREVER:
            raise TemporalError("object was deleted; history is read-only")
        if point < created:
            raise TemporalError("timestamps must not go backwards")

    def _write_root(
        self,
        root_tid: TID,
        created: float,
        deleted: float,
        entries: list[VersionEntry],
        space: LocalAddressSpace,
        groups,
    ) -> None:
        payload = encode_temporal_root(
            created, deleted, entries, space.page_list, space.page_roles, groups
        )
        self._segment.update_record(
            root_tid, payload,
            preferred_pages=space.pages_of(MD_POOL) + space.pages,
        )

    def mutator(self, root_tid: TID, schema: TableSchema, at: Timestamp) -> "TemporalMutator":
        return TemporalMutator(self, root_tid, schema, at)

    # ------------------------------------------------------------ diagnostics

    def version_statistics(self, root_tid: TID) -> dict:
        created, deleted, entries, page_list, _roles, _groups = self._root_state(root_tid)
        return {
            "created": created,
            "deleted": None if deleted == _FOREVER else deleted,
            "version_entries": len(entries),
            "pages": len([p for p in page_list if p is not None]),
        }

    def subtuple_history(
        self, root_tid: TID, key: MiniTID
    ) -> list[tuple[float, float, bytes]]:
        """Walk-through-time at the subtuple level: every stored version of
        one subtuple, oldest first, followed by the current payload."""
        created, deleted, entries, page_list, page_roles, _groups = self._root_state(root_tid)
        space = LocalAddressSpace(self._segment, page_list, page_roles)
        versions = sorted(
            (e for e in entries if e.key == key),
            key=lambda e: e.valid_from,
        )
        out = [
            (e.valid_from, e.valid_to, space.read(e.stored)) for e in versions
        ]
        last = versions[-1].valid_to if versions else created
        end = deleted if deleted != _FOREVER else _FOREVER
        out.append((last, end, space.read(key)))
        return out


class TemporalMutator:
    """The partial-update surface handed to ``Database.update`` callables
    on subtuple-versioned tables — same three operations as
    :class:`~repro.storage.complex_object.OpenObject`, with the timestamp
    bound."""

    def __init__(
        self,
        manager: TemporalObjectManager,
        root_tid: TID,
        schema: TableSchema,
        at: Timestamp,
    ):
        self._manager = manager
        self._root = root_tid
        self._schema = schema
        self._at = at

    def update_atoms(self, path: SubtablePath, updates: dict) -> None:
        self._manager.update_atoms(self._root, self._schema, path, updates, self._at)

    def insert_element(
        self, path: SubtablePath, subtable_name: str, value, position: Optional[int] = None
    ) -> None:
        self._manager.insert_element(
            self._root, self._schema, path, subtable_name, value, self._at, position
        )

    def delete_element(self, path: SubtablePath, subtable_name: str, position: int) -> None:
        self._manager.delete_element(
            self._root, self._schema, path, subtable_name, position, self._at
        )
