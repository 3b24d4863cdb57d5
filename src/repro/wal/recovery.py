"""Redo recovery: rebuild the committed state from the log on open.

The algorithm is the redo half of ARIES, specialised to full-page-image
records and a no-steal buffer policy (so no undo pass is ever needed):

1. **Scan** the log from the start, validating every record (length, CRC,
   LSN-equals-offset).  The scan stops at the first invalid record — the
   torn tail a crash mid-append leaves behind — which cleanly truncates
   any partially durable transaction.
2. **Analyze** the suffix from the last checkpoint: transactions with a
   ``COMMIT`` record are winners; transactions with a ``BEGIN`` but no
   ``COMMIT`` are losers and are discarded wholesale (their page images
   never reached the data file thanks to no-steal).
3. **Redo** the winners' page images in LSN order, extending the data file
   as needed and re-stamping each page's checksum.  Before overwriting, the
   existing page is checksum-verified — a mismatch is a detected torn write,
   repaired by the logged image.
4. The checkpoint's catalog snapshot, with every winner's ``COMMIT``
   delta folded onto it in log order
   (:func:`~repro.wal.delta.apply_catalog_delta`), becomes the recovered
   catalog.  A delta with no snapshot before it, or a record of unknown
   format, raises :class:`~repro.errors.WalError` — a catalog is never
   installed half-applied.

Recovery is idempotent: crashing during recovery and re-running it reaches
the same state, because redo writes are pure functions of the log.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs import METRICS
from repro.storage.page import checksum_ok, stamp_checksum
from repro.storage.pagedfile import PagedFile
from repro.wal.delta import apply_catalog_delta
from repro.wal.record import (
    REC_BEGIN,
    REC_CHECKPOINT,
    REC_COMMIT,
    REC_GC_WATERMARK,
    REC_PAGE_IMAGE,
    decode_catalog,
    decode_gc_watermark,
    decode_page_image,
    iter_records,
)


@dataclass
class RecoveryResult:
    """What one recovery pass did (surfaced as ``db.last_recovery``)."""

    #: catalog state to install (full, format 1), or None (fall back to
    #: the sidecar)
    catalog_state: Optional[Any] = None
    records_scanned: int = 0
    checkpoint_found: bool = False
    pages_replayed: int = 0
    committed_txns: int = 0
    losers_discarded: int = 0
    torn_pages_repaired: int = 0
    #: ids of loser transactions, for diagnostics
    loser_ids: list = field(default_factory=list)
    #: last MVCC version-GC watermark logged before the crash (or None)
    gc_watermark: Optional[float] = None

    def summary(self) -> str:
        return (
            f"recovery: scanned {self.records_scanned} record(s), "
            f"replayed {self.pages_replayed} page image(s) from "
            f"{self.committed_txns} committed txn(s), discarded "
            f"{self.losers_discarded} loser(s), repaired "
            f"{self.torn_pages_repaired} torn page(s)"
        )


def redo_page_image(file: PagedFile, page_no: int, image: bytes) -> bool:
    """Install one logged after-image into *file* (the redo primitive).

    Extends the file as needed, re-stamps the page checksum, and writes.
    Returns True when the existing page failed its checksum (a torn write
    the image just repaired).  Shared by crash recovery and by replica
    apply (:mod:`repro.replication`), which redoes shipped commit batches
    into the replica's own page file.
    """
    torn = False
    if page_no < file.page_count:
        current = file.read_page(page_no)
        if not checksum_ok(current):
            torn = True
    while file.page_count <= page_no:
        file.allocate_page()
    buffer = bytearray(image)
    stamp_checksum(buffer)
    file.write_page(page_no, bytes(buffer))
    return torn


def recover(wal_path: str, file: PagedFile) -> Optional[RecoveryResult]:
    """Replay the WAL at *wal_path* into *file*; returns None when there is
    no log to recover from."""
    if not os.path.exists(wal_path):
        return None
    with open(wal_path, "rb") as handle:
        data = handle.read()
    result = RecoveryResult()
    if not data:
        return result
    records = list(iter_records(data))
    result.records_scanned = len(records)
    if not records:
        return result

    # start the redo scan at the last complete checkpoint
    start = 0
    for index, record in enumerate(records):
        if record.type == REC_CHECKPOINT:
            start = index
            result.checkpoint_found = True
            result.catalog_state = decode_catalog(record.payload)
    tail = records[start:]

    winners = {r.txn for r in tail if r.type == REC_COMMIT}
    losers = sorted(
        {r.txn for r in tail if r.type == REC_BEGIN and r.txn not in winners}
    )
    result.committed_txns = len(winners)
    result.losers_discarded = len(losers)
    result.loser_ids = losers

    for record in tail:
        if record.type == REC_COMMIT:
            result.catalog_state = apply_catalog_delta(
                result.catalog_state, decode_catalog(record.payload)
            )
        if record.type == REC_GC_WATERMARK:
            result.gc_watermark = decode_gc_watermark(record.payload)
        if record.type != REC_PAGE_IMAGE or record.txn not in winners:
            continue
        page_no, image = decode_page_image(record.payload)
        if redo_page_image(file, page_no, image):
            result.torn_pages_repaired += 1
        result.pages_replayed += 1

    if result.pages_replayed:
        file.sync()
    if METRICS.enabled:
        METRICS.inc("wal.recovery.runs")
        METRICS.inc("wal.recovery.records_scanned", result.records_scanned)
        METRICS.inc("wal.recovery.pages_replayed", result.pages_replayed)
        METRICS.inc("wal.recovery.committed_txns", result.committed_txns)
        METRICS.inc("wal.recovery.losers_discarded", result.losers_discarded)
        METRICS.inc(
            "wal.recovery.torn_pages_repaired", result.torn_pages_repaired
        )
    return result
