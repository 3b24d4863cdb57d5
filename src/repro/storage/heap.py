"""Heap files for flat (1NF) tables.

A flat table has no Mini Directory at all (Section 4.1: "a flat (1NF) table
does not have Mini Directories for its objects") — every tuple is one data
subtuple in a heap, addressed by its TID.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.model.schema import TableSchema
from repro.model.values import TupleValue
from repro.obs import METRICS
from repro.storage.segment import Segment
from repro.storage.subtuple import data_layout, encode_data_subtuple
from repro.storage.tid import TID


class HeapFile:
    """Tuple storage for one flat table."""

    def __init__(self, segment: Segment, schema: TableSchema):
        if not schema.is_flat:
            raise ValueError(
                f"HeapFile stores 1NF tables only; {schema.name!r} is nested"
            )
        self._segment = segment
        self._schema = schema

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def segment(self) -> Segment:
        return self._segment

    def insert(self, value: TupleValue) -> TID:
        payload = encode_data_subtuple(self.schema.attributes, value.atomic_values())
        return self._segment.insert_record(payload)

    def _decode(self, payload: bytes) -> TupleValue:
        layout = data_layout(self.schema.attributes)
        values = layout.decode(payload, 0, len(payload))
        # straight from storage decode: schema-complete and type-checked
        return TupleValue.trusted(self.schema, dict(zip(layout.names, values)))

    def fetch(self, tid: TID, lazy: bool = False) -> TupleValue:
        """The row at *tid*; a row is one data subtuple, so *lazy* has
        nothing to defer."""
        if METRICS.enabled:
            METRICS.inc("storage.heap_fetches")
        return self._decode(self._segment.read_record(tid))

    def fetch_columns(
        self, tids: list[TID], needed: Optional[frozenset] = None
    ) -> dict[str, list]:
        """One columnar batch: the values of *tids* as parallel per-attribute
        lists, in TID order — only the attributes in *needed* (every one
        when ``None``).  Feeds the compiled executor's chunked flat scans
        (``Database.scan_chunks``).  Each run of TIDs on one page is read
        under a single pin and decoded straight from the frame; the
        per-row metric stays in step with :meth:`fetch` so A/B comparisons
        read the same counters."""
        if METRICS.enabled:
            METRICS.inc("storage.heap_fetches", len(tids))
        names, decode = data_layout(self.schema.attributes).projection(needed)
        rows = self._segment.decode_records(tids, decode)
        if not rows:
            return {name: [] for name in names}
        return {name: list(column) for name, column in zip(names, zip(*rows))}

    def update(self, tid: TID, value: TupleValue) -> None:
        payload = encode_data_subtuple(self.schema.attributes, value.atomic_values())
        self._segment.update_record(tid, payload)

    def delete(self, tid: TID) -> None:
        self._segment.delete_record(tid)

    def scan(self) -> Iterator[tuple[TID, TupleValue]]:
        for tid, payload in self._segment.scan():
            if METRICS.enabled:
                METRICS.inc("storage.heap_fetches")
            yield tid, self._decode(payload)

    def count(self) -> int:
        return sum(1 for _ in self._segment.scan())
