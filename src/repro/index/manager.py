"""Index definitions and maintenance.

An index is defined on an attribute path, e.g. ``FUNCTION`` reached via
``DEPARTMENTS.PROJECTS.MEMBERS.FUNCTION``.  For NF2 tables the index walks
the stored object's Mini Directory alongside its values and emits one entry
per occurrence; the address stored per entry depends on the
:class:`~repro.index.addresses.AddressingMode` (Section 4.2's comparison).

Maintenance is object-granular: DML re-indexes the affected object, which
keeps every index consistent under partial updates without per-subtuple
bookkeeping.  Only the difference between the object's old and new entries
reaches the tree: Mini TIDs are stable under partial updates (Section 4.1),
so a budget update moves one posting and a member insert adds one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.concurrency.locks import Latch
from repro.errors import AccessPathError
from repro.index.addresses import AddressingMode, HierarchicalAddress, IndexAddress
from repro.index.btree import BPlusTree
from repro.index.stats import IndexStatistics
from repro.model.schema import TableSchema
from repro.obs import METRICS
from repro.storage.complex_object import OpenObject
from repro.storage.minidirectory import DecodedElement
from repro.storage.tid import MiniTID, TID


@dataclass(frozen=True)
class IndexDefinition:
    name: str
    table: str
    attribute_path: tuple[str, ...]
    mode: AddressingMode = AddressingMode.HIERARCHICAL

    def validate_against(self, schema: TableSchema) -> None:
        """The path must descend through table-valued attributes and end at
        an atomic one."""
        current = schema
        for step in self.attribute_path[:-1]:
            attr = current.attribute(step)
            if not attr.is_table:
                raise AccessPathError(
                    f"index {self.name!r}: {step!r} is atomic; the path must "
                    "descend through subtables"
                )
            assert attr.table is not None
            current = attr.table
        last = current.attribute(self.attribute_path[-1])
        if not last.is_atomic:
            raise AccessPathError(
                f"index {self.name!r}: {self.attribute_path[-1]!r} is not atomic"
            )


class NF2Index:
    """A value index over one attribute path of an NF2 table."""

    def __init__(self, definition: IndexDefinition):
        self.definition = definition
        self.tree = BPlusTree()
        self._by_root: dict[TID, list[tuple[Any, IndexAddress]]] = {}
        #: short internal latch: DML re-indexing vs concurrent probes
        self._latch = Latch(f"index:{definition.name}")

    # -- maintenance ------------------------------------------------------------

    def index_object(self, obj: OpenObject) -> None:
        """Bring one stored object's entries up to date.

        Only the multiset difference between its old and new ``(key,
        address)`` entries touches the tree — ``BPlusTree.remove`` scans a
        posting list, and a popular key's list holds thousands."""
        # the object walk reads pages; keep it outside the latch so probe
        # latency is bounded by tree work only
        entries = list(self.compute_entries(obj))
        with self._latch:
            old = self._by_root.get(obj.root_tid)
            added = entries
            if old:
                before, after = Counter(old), Counter(entries)
                for key, address in (before - after).elements():
                    self.tree.remove(key, address)
                added = (after - before).elements()
            for key, address in added:
                self.tree.insert(key, address)
            self._by_root[obj.root_tid] = entries

    def deindex_object(self, root_tid: TID) -> None:
        with self._latch:
            for key, address in self._by_root.pop(root_tid, ()):
                self.tree.remove(key, address)

    def compute_entries(self, obj: OpenObject) -> Iterator[tuple[Any, IndexAddress]]:
        """Walk the object's Mini Directory along the indexed path."""
        yield from self._walk(
            obj, obj.schema, obj.decoded, self.definition.attribute_path, ()
        )

    def _walk(
        self,
        obj: OpenObject,
        schema: TableSchema,
        element: DecodedElement,
        path: tuple[str, ...],
        components: tuple[MiniTID, ...],
    ) -> Iterator[tuple[Any, IndexAddress]]:
        if len(path) == 1:
            atoms = obj.read_atoms(schema, element)
            key = atoms.get(path[0])
            if key is None:
                return  # NULLs are not indexed
            yield key, self._make_address(obj, element, components)
            return
        index = OpenObject._subtable_index(schema, path[0])
        attr = schema.table_attributes[index]
        assert attr.table is not None
        for child in element.subtables[index].elements:
            yield from self._walk(
                obj, attr.table, child, path[1:], components + (child.data,)
            )

    def _make_address(
        self, obj: OpenObject, element: DecodedElement, components: tuple[MiniTID, ...]
    ) -> IndexAddress:
        mode = self.definition.mode
        if mode is AddressingMode.DATA_TID:
            # The first (broken) alternative: the data subtuple's global TID.
            return obj.space.translate(element.data)
        if mode is AddressingMode.ROOT_TID:
            return obj.root_tid
        # HIERARCHICAL: root TID + data-subtuple Mini TIDs per element level;
        # a top-level attribute's single component is the root element's
        # own data subtuple.
        if not components:
            components = (obj.decoded.data,)
        return HierarchicalAddress(root=obj.root_tid, components=components)

    # -- lookup ----------------------------------------------------------------------

    def search(self, key: Any) -> list[IndexAddress]:
        if METRICS.enabled:
            METRICS.inc("index.probes", index=self.definition.name)
        with self._latch:
            return list(self.tree.search(key))

    def range(self, low: Any = None, high: Any = None, **kwargs) -> Iterator[tuple[Any, list[IndexAddress]]]:
        if METRICS.enabled:
            METRICS.inc("index.range_scans", index=self.definition.name)
        with self._latch:
            # materialized under the latch: a concurrent re-index must not
            # rebalance the tree underneath a lazy leaf walk
            return iter(list(self.tree.range(low, high, **kwargs)))

    @property
    def names_roots(self) -> bool:
        """Whether an entry leads to its object's root: not under the
        paper's first approach (DATA_TID), which is its whole problem."""
        return self.definition.mode is not AddressingMode.DATA_TID

    def roots_for(self, key: Any) -> list[TID]:
        """Distinct object roots containing *key* (see :attr:`names_roots`)."""
        if not self.names_roots:
            raise AccessPathError(
                "data-subtuple TIDs carry no structural information; the "
                "owning objects cannot be derived (Section 4.2)"
            )
        seen: list[TID] = []
        for address in self.search(key):
            root = address.root if isinstance(address, HierarchicalAddress) else address
            if root not in seen:
                seen.append(root)
        return seen

    @property
    def stats(self) -> IndexStatistics:
        """Incrementally-maintained statistics (see ``index/stats.py``)."""
        return self.tree.stats

    def __len__(self) -> int:
        return len(self.tree)


class FlatIndex:
    """A value index over one attribute of a flat (1NF) heap table —
    ordinary System-R style ``<key, TID...>`` entries."""

    def __init__(self, definition: IndexDefinition):
        if len(definition.attribute_path) != 1:
            raise AccessPathError("flat tables index top-level attributes only")
        self.definition = definition
        self.tree = BPlusTree()
        self._by_tid: dict[TID, Any] = {}
        self._latch = Latch(f"index:{definition.name}")

    def index_row(self, tid: TID, key: Any) -> None:
        with self._latch:
            old = self._by_tid.get(tid)
            if old is not None and old == key:
                return  # key unchanged: the posting stays where it is
            if old is not None:
                del self._by_tid[tid]
                self.tree.remove(old, tid)
            if key is None:
                return
            self.tree.insert(key, tid)
            self._by_tid[tid] = key

    def deindex_row(self, tid: TID) -> None:
        with self._latch:
            key = self._by_tid.pop(tid, None)
            if key is not None:
                self.tree.remove(key, tid)

    def search(self, key: Any) -> list[TID]:
        if METRICS.enabled:
            METRICS.inc("index.probes", index=self.definition.name)
        with self._latch:
            return list(self.tree.search(key))

    #: a posting is the row's TID, whatever the definition's mode
    names_roots = True

    def roots_for(self, key: Any) -> list[TID]:
        """The rows holding *key*."""
        return self.search(key)

    def range(self, low: Any = None, high: Any = None, **kwargs):
        if METRICS.enabled:
            METRICS.inc("index.range_scans", index=self.definition.name)
        with self._latch:
            return iter(list(self.tree.range(low, high, **kwargs)))

    @property
    def stats(self) -> IndexStatistics:
        """Incrementally-maintained statistics (see ``index/stats.py``)."""
        return self.tree.stats

    def __len__(self) -> int:
        return len(self.tree)
