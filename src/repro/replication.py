"""WAL log shipping: one primary streams commits to N read replicas.

The paper's complex objects are physically self-contained (the root MD
subtuple carries the object's page list, §4.1), and the write-ahead log
already captures every commit as full page after-images plus a catalog
delta.  That makes *physical* replication almost free: a
replica is just another process redoing the primary's commit batches
into its own page file and buffer pool, then serving read-only / ASOF /
snapshot queries from them.

Roles
=====

**Primary** — :class:`ReplicationHub`, created lazily by the server when
the first replica connects.  It registers itself as a WAL *shipper*
(:attr:`~repro.wal.manager.WalManager.shippers`): after every durable
commit it receives the committed page images and the catalog delta the
COMMIT record carries, stamps them with a monotonically increasing
**batch sequence number**, and fans the encoded batch out to every
attached replica link.  Attach is atomic with commit publication (both
run under the engine's write latch), so a new replica gets a consistent
full snapshot plus exactly the commits after it.

**Replica** — :func:`open_replica` opens a read-only
:class:`~repro.database.Database` (``wal=False`` — shipped images *are*
the log) and starts a :class:`ReplicaTailer` thread that connects to the
primary's normal line-protocol port, sends the ``REPLICATE <seq>``
handshake, and then applies the JSON-lines stream: page images are
redone through :func:`~repro.wal.recovery.redo_page_image` (the same
primitive crash recovery uses), the buffer pool drops its stale copies,
the shipped delta is folded onto the replica's catalog state, and the
catalog entries it names are rebuilt.  Each
applied batch is acknowledged back, which is where the primary's
``SYS.REPLICAS`` lag column comes from.  The tailer reconnects with
backoff until it is stopped or the replica is promoted.

Consistency: apply takes table-``X`` locks (through the shared lock
manager) on every table whose pages or catalog entry a batch touches, so
2PL readers on the replica never observe a half-applied commit.  Readers
queue behind apply exactly like they queue behind a local writer; a
deadlock against a multi-table reader is detected by the lock manager
and apply simply retries.

Failover: :func:`promote` stops the tailer, clears
``Database.read_only``, and (for disk-backed replicas) attaches a fresh
WAL so the promoted database is durable in its own right.  The server
exposes it as the ``PROMOTE`` verb.

Wire format (after the ``REPLICATE`` handshake the connection leaves the
``#<n>`` framing and becomes a JSON-lines stream)::

    primary -> replica  {"type": "snapshot", "seq": S, "pages": [[no, b64(zlib(image))], ...], "catalog": {...}}
    primary -> replica  {"type": "commit",   "seq": S, "pages": [...], "catalog": {<delta>}}
    primary -> replica  {"type": "ping",     "seq": S}
    replica -> primary  {"type": "ack",      "seq": S}

See docs/REPLICATION.md for the operational picture.
"""

from __future__ import annotations

import base64
import json
import socket
import threading
import time
import zlib
from typing import TYPE_CHECKING, Callable, Optional

from repro.concurrency.locks import LockMode
from repro.errors import ConcurrencyError, ExecutionError, WalError
from repro.obs import METRICS
from repro.wal.delta import apply_catalog_delta, table_name
from repro.wal.recovery import redo_page_image

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database import Database


# ---------------------------------------------------------------------------
# Batch codec (page images travel zlib-compressed + base64 inside JSON)
# ---------------------------------------------------------------------------


def _encode_pages(pages) -> list:
    return [
        [page_no, base64.b64encode(zlib.compress(bytes(image))).decode("ascii")]
        for page_no, image in pages
    ]


def _decode_pages(blob) -> list:
    return [
        (int(page_no), zlib.decompress(base64.b64decode(data)))
        for page_no, data in blob
    ]


def _encode_message(message: dict) -> bytes:
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Primary side
# ---------------------------------------------------------------------------


class ReplicaLink:
    """One attached replica, as the primary sees it."""

    def __init__(self, peer: str, deliver: Callable[[bytes], None]):
        self.peer = peer
        #: enqueue one encoded message for this replica's writer (must be
        #: non-blocking and thread-safe — the async server bridges it
        #: onto the event loop with ``call_soon_threadsafe``)
        self.deliver = deliver
        self.connected_at = time.time()
        self.sent_seq = 0
        self.acked_seq = 0
        self.batches = 0
        self.pages = 0
        self.bytes = 0
        self.alive = True


class ReplicationHub:
    """Primary-side fan-out of committed WAL batches to replica links."""

    role = "primary"

    def __init__(self, db: "Database"):
        if db.wal is None:
            raise ExecutionError(
                "replication needs a WAL-enabled (disk-backed) primary"
            )
        self.db = db
        #: commit-batch sequence number; bumped by every shipped commit
        self.seq = 0
        self._latch = threading.Lock()
        self._links: list[ReplicaLink] = []
        db.wal.shippers.append(self.publish)

    # -- link lifecycle ------------------------------------------------------

    def attach(self, deliver: Callable[[bytes], None], peer: str) -> ReplicaLink:
        """Register a replica and hand it a consistent full snapshot.

        Runs under the engine's write latch so no commit can interleave
        between the snapshot read and the link registration: the replica
        sees snapshot ``seq`` and then every commit ``> seq``, exactly
        once.  The checkpoint first flushes every dirty frame, so the
        page file *is* the current state.
        """
        db = self.db
        with db._write_latch:
            db.checkpoint()
            file = db._file
            pages = [
                (page_no, file.read_page(page_no))
                for page_no in range(file.page_count)
            ]
            link = ReplicaLink(peer, deliver)
            with self._latch:
                self._links.append(link)
            self._send(
                link,
                {
                    "type": "snapshot",
                    "seq": self.seq,
                    "pages": _encode_pages(pages),
                    "catalog": db._catalog_state(),
                },
            )
        if METRICS.enabled:
            METRICS.set_gauge("replication.replicas", len(self.links()))
            METRICS.inc("replication.attaches")
        return link

    def detach(self, link: ReplicaLink) -> None:
        link.alive = False
        with self._latch:
            if link in self._links:
                self._links.remove(link)
        if METRICS.enabled:
            METRICS.set_gauge("replication.replicas", len(self.links()))

    def links(self) -> list[ReplicaLink]:
        with self._latch:
            return list(self._links)

    def ack(self, link: ReplicaLink, seq: int) -> None:
        link.acked_seq = max(link.acked_seq, int(seq))

    # -- shipping --------------------------------------------------------------

    def publish(self, pages, catalog_delta) -> None:
        """The WAL shipper hook: one durable commit's page images +
        catalog delta.  Runs on the committing thread, under the write
        latch, *after* the log fsync."""
        self.seq += 1
        links = self.links()
        if not links:
            return
        message = {
            "type": "commit",
            "seq": self.seq,
            "pages": _encode_pages(pages),
            "catalog": catalog_delta,
        }
        data = _encode_message(message)
        for link in links:
            self._send(link, message, data)

    def ping(self) -> bytes:
        """An idle heartbeat carrying the current sequence number (the
        replica derives observable lag from it)."""
        return _encode_message({"type": "ping", "seq": self.seq})

    def _send(self, link: ReplicaLink, message: dict, data: Optional[bytes] = None) -> None:
        if not link.alive:
            return
        if data is None:
            data = _encode_message(message)
        try:
            link.deliver(data)
        except Exception:
            link.alive = False
            return
        link.sent_seq = message["seq"]
        link.batches += 1
        link.pages += len(message.get("pages", ()))
        link.bytes += len(data)
        if METRICS.enabled:
            METRICS.inc("replication.batches_shipped")
            METRICS.inc("replication.bytes_shipped", len(data))

    def shutdown(self) -> None:
        wal = self.db.wal
        if wal is not None and self.publish in wal.shippers:
            wal.shippers.remove(self.publish)
        for link in self.links():
            self.detach(link)

    # -- observability -----------------------------------------------------------

    def replica_rows(self):
        """SYS.REPLICAS rows: one per attached replica."""
        for link in self.links():
            yield {
                "ROLE": "downstream",
                "PEER": str(link.peer),
                "STATE": "streaming" if link.alive else "dead",
                "CONNECTED_AT": link.connected_at,
                "SHIPPED_SEQ": link.sent_seq,
                "APPLIED_SEQ": link.acked_seq,
                "LAG": max(0, self.seq - link.acked_seq),
                "BATCHES": link.batches,
                "PAGES": link.pages,
                "BYTES": link.bytes,
            }

    def wal_row_fields(self) -> dict:
        links = [link for link in self.links() if link.alive]
        return {
            "ROLE": "primary",
            "SHIPPED_SEQ": self.seq,
            "APPLIED_SEQ": min((l.acked_seq for l in links), default=None),
            "REPLICA_LAG": max(
                (self.seq - l.acked_seq for l in links), default=0
            ),
            "REPLICAS": len(links),
        }


# ---------------------------------------------------------------------------
# Replica side
# ---------------------------------------------------------------------------


class ReplicaState:
    """Replication status of a replica database (``db.replication``)."""

    def __init__(self, primary: str):
        self.primary = primary
        self.role = "replica"
        self.connected = False
        self.connected_at: Optional[float] = None
        self.promoted = False
        #: newest primary sequence number observed (commits + pings)
        self.seen_seq = 0
        #: newest batch fully applied and acknowledged
        self.applied_seq = 0
        self.batches = 0
        self.pages_applied = 0
        self.bytes_received = 0
        self.last_error: Optional[str] = None
        #: full catalog state as of ``applied_seq``: the attach snapshot
        #: with every applied batch's delta folded in (the per-table
        #: states that apply rebuilds catalog entries from)
        self._catalog: Optional[dict] = None
        self._cond = threading.Condition()
        self._tailer: Optional["ReplicaTailer"] = None

    @property
    def lag(self) -> int:
        return max(0, self.seen_seq - self.applied_seq)

    def _note(self, **fields) -> None:
        with self._cond:
            for key, value in fields.items():
                setattr(self, key, value)
            self._cond.notify_all()

    def wait_for_seq(self, seq: int, timeout: float = 30.0) -> bool:
        """Block until every batch up to *seq* is applied (tests and the
        failover drill use it to bound the catch-up window)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self.applied_seq >= seq or self.promoted, timeout
            )

    def shutdown(self) -> None:
        tailer = self._tailer
        if tailer is not None:
            tailer.stop()
            tailer.join(timeout=5)

    # -- observability -----------------------------------------------------------

    def replica_rows(self):
        state = (
            "promoted"
            if self.promoted
            else ("tailing" if self.connected else "disconnected")
        )
        yield {
            "ROLE": "upstream",
            "PEER": self.primary,
            "STATE": state,
            "CONNECTED_AT": self.connected_at,
            "SHIPPED_SEQ": self.seen_seq,
            "APPLIED_SEQ": self.applied_seq,
            "LAG": self.lag,
            "BATCHES": self.batches,
            "PAGES": self.pages_applied,
            "BYTES": self.bytes_received,
        }

    def wal_row_fields(self) -> dict:
        return {
            "ROLE": self.role,
            "SHIPPED_SEQ": self.seen_seq,
            "APPLIED_SEQ": self.applied_seq,
            "REPLICA_LAG": self.lag,
            "REPLICAS": 0,
        }


class ReplicaTailer(threading.Thread):
    """The replica's tailing thread: connect, handshake, apply, ack."""

    def __init__(
        self,
        db: "Database",
        host: str,
        port: int,
        state: ReplicaState,
        reconnect_delay: float = 0.2,
    ):
        super().__init__(name=f"repro-replica-{host}:{port}", daemon=True)
        self.db = db
        self.host = host
        self.port = port
        self.state = state
        self.reconnect_delay = reconnect_delay
        self._stop_event = threading.Event()
        self._sock: Optional[socket.socket] = None

    def stop(self) -> None:
        self._stop_event.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def run(self) -> None:  # pragma: no branch - loop structure
        state = self.state
        while not self._stop_event.is_set() and not state.promoted:
            try:
                self._tail_once()
            except (OSError, ValueError, KeyError, WalError) as exc:
                state.last_error = f"{type(exc).__name__}: {exc}"
            finally:
                state._note(connected=False)
            if self._stop_event.is_set() or state.promoted:
                break
            time.sleep(self.reconnect_delay)

    def _tail_once(self) -> None:
        state = self.state
        sock = socket.create_connection((self.host, self.port), timeout=10)
        self._sock = sock
        try:
            sock.settimeout(None)
            stream = sock.makefile("rwb")
            stream.write(f"REPLICATE {state.applied_seq}\n".encode("utf-8"))
            stream.flush()
            state._note(connected=True, connected_at=time.time())
            for raw in stream:
                if self._stop_event.is_set() or state.promoted:
                    return
                if raw.startswith(b"#"):
                    # still inside the line protocol: the primary refused
                    # the handshake — read its framed error and bail out
                    count = int(raw[1:])
                    detail = b"".join(
                        stream.readline() for _ in range(count)
                    )
                    raise ValueError(
                        detail.decode("utf-8", "replace").strip()
                        or "REPLICATE rejected"
                    )
                message = json.loads(raw)
                seq = int(message.get("seq", 0))
                if seq > state.seen_seq:
                    state._note(seen_seq=seq)
                if METRICS.enabled:
                    METRICS.set_gauge("replication.lag", state.lag)
                if message["type"] == "ping":
                    continue
                apply_batch(self.db, state, message)
                state._note(
                    applied_seq=seq,
                    batches=state.batches + 1,
                    pages_applied=state.pages_applied
                    + len(message.get("pages", ())),
                    bytes_received=state.bytes_received + len(raw),
                )
                if METRICS.enabled:
                    METRICS.inc("replication.batches_applied")
                    METRICS.set_gauge("replication.lag", state.lag)
                stream.write(_encode_message({"type": "ack", "seq": seq}))
                stream.flush()
        finally:
            self._sock = None
            try:
                sock.close()
            except OSError:
                pass


def apply_batch(db: "Database", state: ReplicaState, message: dict) -> None:
    """Redo one shipped batch into the replica.

    Page images go straight into the page file (crash recovery's redo
    primitive) and the buffer pool forgets its stale copies.  A commit's
    catalog delta is folded onto the replica's catalog state with the
    same :func:`~repro.wal.delta.apply_catalog_delta` crash recovery
    uses, and catalog entries are rebuilt only where the batch changed
    something: the tables the delta names (insert/delete/DDL), and
    *indexed* tables whose pages changed (an in-place UPDATE rewrites page
    bytes without moving the catalog — the in-memory index must be
    rebuilt to follow).  A commit whose sequence number does not follow
    the last applied one has no base to apply to: apply raises
    :class:`WalError` before touching anything, and the tailer re-attaches
    for a fresh snapshot.  Table-``X`` locks on everything touched keep
    2PL readers off half-applied state.
    """
    pages = _decode_pages(message.get("pages", ()))
    snapshot = message["type"] == "snapshot"
    page_set = {page_no for page_no, _ in pages}

    if snapshot:
        catalog_state = apply_catalog_delta(None, message["catalog"])
        table_states = {table_name(ts): ts for ts in catalog_state["tables"]}
        rebuild = set(table_states)
        dropped = {e.name for e in db.catalog.tables()} - rebuild
    else:
        seq = int(message["seq"])
        if seq != state.applied_seq + 1:
            raise WalError(
                f"replication batch {seq} does not follow applied batch "
                f"{state.applied_seq}; re-attach for a snapshot"
            )
        delta = message["catalog"]
        try:
            catalog_state = apply_catalog_delta(state._catalog, delta)
        except WalError:
            state._catalog = None  # folded in place: only a snapshot heals
            raise
        table_states = {table_name(ts): ts for ts in catalog_state["tables"]}
        rebuild = {change["name"] for change in delta["tables"]}
        dropped = set(delta["dropped"]) - rebuild
        for name, ts in table_states.items():
            if name in rebuild or not ts["indexes"]:
                continue
            if page_set.intersection(ts["segment"]["pages"]):
                rebuild.add(name)

    # every table whose pages this batch rewrites must be reader-free
    # while the new bytes land, indexed or not
    touched = set(rebuild) | dropped
    for name, ts in table_states.items():
        if name not in touched and page_set.intersection(ts["segment"]["pages"]):
            touched.add(name)
    touched = {name for name in touched if db.catalog.has_table(name)} | rebuild

    txn = _lock_tables_exclusive(db, sorted(touched))
    db._apply_ctx.active = True
    try:
        with db._write_latch:
            state._catalog = catalog_state
            for page_no, image in pages:
                redo_page_image(db._file, page_no, image)
                db.buffer.invalidate(page_no)
            if METRICS.enabled:
                METRICS.inc("replication.pages_applied", len(pages))
            for name in dropped:
                if db.catalog.has_table(name):
                    db.catalog.drop_table(name)
            for name, ts in table_states.items():
                if name in rebuild:
                    if db.catalog.has_table(name):
                        db.catalog.drop_table(name)
                    db._restore_table_entry(ts, current_only=True)
            if rebuild or dropped:
                db.schema_epoch += 1  # compiled plans must re-resolve
    finally:
        db._apply_ctx.active = False
        if txn is not None:
            db.locks.release_all(txn)


def _lock_tables_exclusive(db: "Database", names: list) -> Optional[int]:
    """Take table-``X`` on *names* for the apply scope, retrying if the
    deadlock detector picks apply as the victim against a reader that
    locked the same tables in the opposite order."""
    if not names:
        return None
    while True:
        txn = db.locks.begin("replica-apply")
        try:
            for name in names:
                db.locks.acquire(txn, ("table", name), LockMode.X)
            return txn
        except ConcurrencyError:
            db.locks.release_all(txn)
            time.sleep(0.02)


# ---------------------------------------------------------------------------
# Role management
# ---------------------------------------------------------------------------


def open_replica(
    primary: str,
    path: Optional[str] = None,
    reconnect_delay: float = 0.2,
    **db_kwargs,
) -> "Database":
    """Open a read-only replica of *primary* (``"host:port"``).

    The returned database starts empty, and the background tailer fills
    it: first the full snapshot, then every commit the primary ships.
    ``db.replication`` (a :class:`ReplicaState`) reports progress;
    :func:`promote` turns the replica into a writable primary.
    """
    from repro.database import Database

    host, _, port_text = primary.rpartition(":")
    if not host or not port_text.isdigit():
        raise ExecutionError(
            f"--replica-of wants host:port, got {primary!r}"
        )
    db = Database(path=path, wal=False, read_only=True, mvcc=False, **db_kwargs)
    state = ReplicaState(primary)
    db.replication = state
    tailer = ReplicaTailer(
        db, host, int(port_text), state, reconnect_delay=reconnect_delay
    )
    state._tailer = tailer
    tailer.start()
    return db


def promote(db: "Database") -> None:
    """Fail over: stop tailing, accept writes, become durable.

    Idempotent-ish by rejection: promoting a non-replica raises.  For a
    disk-backed replica a fresh WAL is attached and checkpointed so the
    promoted database recovers like any primary from here on.
    """
    state = db.replication
    if not isinstance(state, ReplicaState):
        raise ExecutionError(
            "PROMOTE: this database is not a replica (nothing to promote)"
        )
    if state.promoted:
        raise ExecutionError("PROMOTE: replica is already promoted")
    state._note(promoted=True)
    state.shutdown()
    db.read_only = False
    state.role = "promoted"
    if db._path is not None and db.wal is None:
        from repro.wal.manager import WalManager

        db.wal = WalManager(db._wal_path)
        db.buffer.wal = db.wal
        db.checkpoint()
    if METRICS.enabled:
        METRICS.inc("replication.promotions")
