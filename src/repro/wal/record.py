"""Binary WAL record format.

Every record is self-describing and self-validating::

    0..4    payload length (u32)
    4..8    CRC32 over (lsn, prev_lsn, type, txn_id, payload) (u32)
    8..16   LSN — the record's byte offset in the log file (u64)
    16..24  prev LSN — backward chain to the previous record (u64)
    24..25  record type (u8)
    25..33  transaction id (u64; 0 for checkpoint records)
    33..    payload

The LSN doubling as the file offset makes the log self-locating: a scan
rejects any record whose stored LSN disagrees with its position, which —
together with the CRC and the length bound — cleanly truncates torn tails
left by a crash mid-append.

Record types and payloads:

``BEGIN``
    empty — opens transaction *txn_id*.
``PAGE_IMAGE``
    ``u32 page_no + u8 codec + image`` — a physiological redo record: the
    full after-image of one page as dirtied by *txn_id* (codec 1 = zlib).
``COMMIT``
    zlib-compressed catalog JSON — the transaction's catalog *delta*
    (``"format": 2``: dropped tables, root-TID and page-list operations,
    whole entries for DDL-touched or versioned tables; see
    :mod:`repro.wal.delta`).  Redo replays the page images of committed
    transactions and folds their deltas onto the checkpoint's catalog.
    Logs written before deltas carry a full snapshot here
    (``"format": 1``), which replays as a snapshot.
``ABORT``
    empty — the transaction's in-memory effects were rolled back; its page
    images (if any) must not be replayed on their own.
``CHECKPOINT``
    zlib-compressed catalog JSON — the full catalog state (``"format":
    1``, the same document as the catalog sidecar), written after all
    dirty pages reached the data file; recovery starts its redo scan and
    its catalog at the last checkpoint.
``GC_WATERMARK``
    ``f64`` — the MVCC version-GC watermark (oldest snapshot point still
    reachable) after a reclamation round.  Informational: redo skips it;
    recovery reports the last one seen (``RecoveryResult.gc_watermark``).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator, Union

from repro.errors import WalError

REC_BEGIN = 1
REC_COMMIT = 2
REC_ABORT = 3
REC_PAGE_IMAGE = 4
REC_CHECKPOINT = 5
REC_GC_WATERMARK = 6

RECORD_NAMES = {
    REC_BEGIN: "BEGIN",
    REC_COMMIT: "COMMIT",
    REC_ABORT: "ABORT",
    REC_PAGE_IMAGE: "PAGE_IMAGE",
    REC_CHECKPOINT: "CHECKPOINT",
    REC_GC_WATERMARK: "GC_WATERMARK",
}

_HEADER = struct.Struct(">IIQQBQ")  # length, crc, lsn, prev_lsn, type, txn
HEADER_SIZE = _HEADER.size

_CRC_BODY = struct.Struct(">QQBQ")

_IMAGE_HEADER = struct.Struct(">IB")  # page_no, codec
_CODEC_RAW = 0
_CODEC_ZLIB = 1


@dataclass(frozen=True)
class WalRecord:
    lsn: int
    prev_lsn: int
    type: int
    txn: int
    payload: bytes

    @property
    def name(self) -> str:
        return RECORD_NAMES.get(self.type, f"?{self.type}")

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"<WalRecord {self.name} lsn={self.lsn} txn={self.txn} {len(self.payload)}B>"


def _crc(lsn: int, prev_lsn: int, rtype: int, txn: int, payload: bytes) -> int:
    crc = zlib.crc32(_CRC_BODY.pack(lsn, prev_lsn, rtype, txn))
    return zlib.crc32(payload, crc) & 0xFFFFFFFF


def encode_record(
    lsn: int, prev_lsn: int, rtype: int, txn: int, payload: bytes = b""
) -> bytes:
    """Serialize one record (header + payload) for appending at *lsn*."""
    crc = _crc(lsn, prev_lsn, rtype, txn, payload)
    return _HEADER.pack(len(payload), crc, lsn, prev_lsn, rtype, txn) + payload


def iter_records(data: Union[bytes, bytearray]) -> Iterator[WalRecord]:
    """Yield valid records from the start of *data*, stopping at the first
    incomplete, corrupt, or misplaced record (the torn tail of a crash)."""
    offset = 0
    size = len(data)
    while offset + HEADER_SIZE <= size:
        length, crc, lsn, prev_lsn, rtype, txn = _HEADER.unpack_from(data, offset)
        end = offset + HEADER_SIZE + length
        if end > size:
            break  # torn tail: the payload never fully reached the disk
        if lsn != offset:
            break  # garbage or a half-overwritten region
        if rtype not in RECORD_NAMES:
            break
        payload = bytes(data[offset + HEADER_SIZE:end])
        if crc != _crc(lsn, prev_lsn, rtype, txn, payload):
            break  # torn or bit-rotted record
        yield WalRecord(lsn, prev_lsn, rtype, txn, payload)
        offset = end


# ---------------------------------------------------------------------------
# payload codecs
# ---------------------------------------------------------------------------


def encode_page_image(page_no: int, image: bytes) -> bytes:
    compressed = zlib.compress(image, 1)
    if len(compressed) < len(image):
        return _IMAGE_HEADER.pack(page_no, _CODEC_ZLIB) + compressed
    return _IMAGE_HEADER.pack(page_no, _CODEC_RAW) + image


def decode_page_image(payload: bytes) -> tuple[int, bytes]:
    page_no, codec = _IMAGE_HEADER.unpack_from(payload, 0)
    body = payload[_IMAGE_HEADER.size:]
    if codec == _CODEC_ZLIB:
        return page_no, zlib.decompress(body)
    if codec == _CODEC_RAW:
        return page_no, body
    raise WalError(f"unknown page-image codec {codec}")


def encode_catalog(state: Any) -> bytes:
    """A catalog snapshot or delta as a COMMIT/CHECKPOINT payload."""
    return zlib.compress(json.dumps(state).encode("utf-8"), 6)


def decode_catalog(payload: bytes) -> Any:
    return json.loads(zlib.decompress(payload).decode("utf-8"))


_F64 = struct.Struct(">d")


def encode_gc_watermark(watermark: float) -> bytes:
    return _F64.pack(watermark)


def decode_gc_watermark(payload: bytes) -> float:
    if len(payload) != _F64.size:
        raise WalError("malformed GC_WATERMARK payload")
    return _F64.unpack(payload)[0]
