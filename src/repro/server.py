"""A multi-client line-protocol server over one shared database.

::

    python -m repro.server db.aim [--host 127.0.0.1] [--port 7474]
    python -m repro.server replica.aim --replica-of 127.0.0.1:7474

The server opens the database once and hands every TCP connection its own
:class:`~repro.concurrency.session.Session`, so clients run concurrent
statements under the hierarchical lock manager while sharing the buffer
pool, the WAL, and the catalog.

:class:`AsyncDatabaseServer` runs an asyncio event loop with **request
pipelining**: each connection's reader accepts statements as fast as the
client sends them, a bounded worker pool executes them (statements still
run on threads against the ``Session`` layer, so locking semantics are
unchanged), and responses are framed back **in send order** per
connection.  Admission control sheds load: when more than ``--queue``
statements are outstanding server-wide, new statements are answered
immediately with an ``error: server overloaded`` line instead of
queueing without bound (``server.queue_depth`` / ``server.rejected`` /
``server.requests`` metrics; queued time shows up as the
``Server/Queue`` wait event).

Wire protocol (text, UTF-8, newline-framed — telnet/netcat friendly):

* The client sends **one line per statement** (the trailing ``;`` is
  optional).  Shell dot-commands (``.tables``, ``.locks``, ...) work too.
* Three session-control verbs manage an explicit transaction scope:
  ``BEGIN``, ``COMMIT``, ``ROLLBACK`` (see
  :mod:`repro.concurrency.session`).  ``BEGIN SNAPSHOT`` and ``BEGIN 2PL``
  pick the isolation level explicitly (``BEGIN`` alone takes the
  database's default: snapshot isolation under ``mvcc=True``, strict
  two-phase locking otherwise).
* ``METRICS`` returns the live metrics registry rendered in the
  Prometheus text format — the scrape surface
  (``printf 'METRICS\\n' | nc host port`` works like a ``curl`` against
  ``/metrics``); ``SYS.*`` tables offer the same data as queryable NF²
  relations.
* ``TRACE <id>`` arms a client-supplied trace id (a bare token or a W3C
  ``traceparent`` header) for this connection's **next** statement;
  ``TRACE EXPORT [id]`` returns retained trace(s) as Chrome
  ``trace_event`` JSON.
* ``PROMOTE`` fails a replica over: it stops tailing the primary,
  accepts writes, and (disk-backed) attaches its own WAL
  (see :mod:`repro.replication` and docs/REPLICATION.md).
* ``REPLICATE <seq>`` is the log-shipping handshake sent by a replica's
  tailer, never by interactive clients: the connection leaves the
  ``#<n>`` framing and becomes a JSON-lines stream of commit batches.
* The server answers with a header line ``#<n>`` followed by exactly
  *n* payload lines — the same text the shell would have printed.
  Errors are payload lines starting with ``error:``; the connection
  stays usable.
* ``.quit`` / ``.exit`` (any case, like every other verb) or EOF ends
  the connection; the session's locks are released and any open
  transaction is rolled back.  The server also hangs up — and rolls the
  open transaction back — when a reply cannot be delivered: a client
  that vanished mid-statement must not keep executing statements.

:class:`LineClient` is the matching blocking client used by the tests
and the benchmarks; :meth:`LineClient.pipeline` sends a batch of
statements before reading any response (the pipelining fast path).
"""

from __future__ import annotations

import argparse
import asyncio
import io
import json
import os
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.concurrency.session import Session
from repro.database import Database
from repro.errors import ReproError
from repro.obs import METRICS, WAITS
from repro.shell import dot_command, execute_line, health_probe

#: longest accepted protocol line (statements and replication acks)
_LINE_LIMIT = 4 * 1024 * 1024


def _frame(text: str) -> bytes:
    """Encode a response as ``#<n>`` + n lines.

    Splits on ``"\\n"`` **only**: ``str.splitlines`` also breaks on
    ``\\x0b``/``\\x0c``/``\\x1c``-``\\x1e``/``\\x85``/U+2028/U+2029, while
    the reading side (:class:`LineClient`, ``readline``) only honours
    ``\\n`` — a string value containing a vertical tab used to desync the
    framing (the header promised more lines than ``readline`` could
    find).
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # a trailing newline is framing, not content
    body = "".join(line + "\n" for line in lines)
    return f"#{len(lines)}\n{body}".encode("utf-8")


class _ClientState:
    """Per-connection protocol state (the open explicit transaction)."""

    __slots__ = ("txn",)

    def __init__(self) -> None:
        self.txn = None  # open _SessionTransaction, if any


def process_statement(
    db: Database, session: Session, state: _ClientState, line: str
) -> tuple[str, bool]:
    """Run one protocol line; returns ``(payload, connection_stays_open)``."""
    line = line.strip()
    if line.endswith(";"):
        line = line[:-1].strip()
    if not line:
        return "", True
    upper = line.upper()
    out = io.StringIO()
    if line.startswith("."):
        # dot-commands match case-insensitively, exactly like the verbs
        # (`.QUIT` must hang up just as `.quit` does)
        word = line.split(None, 1)[0].lower()
        if word in (".quit", ".exit"):
            return "bye", False
        # dot-commands read shared state; route to the real db
        dot_command(db, line, out=out)
    elif upper == "METRICS":
        # the scrape verb: Prometheus text exposition
        out.write(METRICS.to_prometheus())
    elif upper == "HEALTH":
        # the readiness probe: first line is "health: ok|pending|alerting";
        # orchestration gates replica promotion / traffic on it
        health_probe(db, out)
    elif upper == "PROMOTE":
        from repro.replication import promote

        try:
            promote(db)
            print("promoted: accepting writes", file=out)
        except ReproError as exc:
            print(f"error: {exc}", file=out)
    elif upper == "TRACE EXPORT" or upper.startswith("TRACE EXPORT "):
        from repro.obs import TRACER, chrome_trace_json, parse_trace_id

        wanted = line[len("TRACE EXPORT"):].strip()
        if wanted:
            try:
                wanted = parse_trace_id(wanted)
            except ValueError:
                pass  # fall through: lookup simply misses
            trace = TRACER.get(wanted)
            selected = [trace] if trace is not None else []
        else:
            selected = list(TRACER.traces)
        if not selected:
            print(
                f"error: no retained trace"
                + (f" {wanted!r}" if wanted else "s"),
                file=out,
            )
        else:
            print(chrome_trace_json(selected), file=out)
    elif upper.startswith("TRACE "):
        # arm a trace id for this connection's next statement, which may
        # run on another pool worker: the session keeps it
        from repro.obs import parse_trace_id

        try:
            session.trace_id = parse_trace_id(line[len("TRACE "):])
            print(f"trace armed {session.trace_id}", file=out)
        except ValueError as exc:
            print(f"error: {exc}", file=out)
    elif upper == "BEGIN" or upper.startswith("BEGIN "):
        if state.txn is not None:
            print("error: transaction already open", file=out)
        else:
            isolation = line[len("BEGIN"):].strip().lower() or None
            try:
                txn = session.transaction(isolation=isolation)
                txn.__enter__()
                state.txn = txn
                if isolation is None:
                    print("begin", file=out)
                else:
                    print(f"begin ({txn.isolation})", file=out)
            except ReproError as exc:
                print(f"error: {exc}", file=out)
    elif upper in ("COMMIT", "ROLLBACK"):
        if state.txn is None:
            print("error: no open transaction", file=out)
        else:
            try:
                if upper == "COMMIT":
                    state.txn.__exit__(None, None, None)
                    print("commit", file=out)
                else:
                    exc = ReproError("client rollback")
                    state.txn.__exit__(type(exc), exc, None)
                    print("rollback", file=out)
            except ReproError as exc:
                print(f"error: {exc}", file=out)
            finally:
                state.txn = None
    else:
        # statement dispatch: the shell's printer over a session (same
        # rendering as the interactive shell)
        execute_line(session, line, out=out)
    return out.getvalue(), True


def _hangup(session: Session, state: _ClientState) -> None:
    """Connection teardown: roll back the open transaction (its locks
    must not outlive the client) and close the session."""
    if state.txn is not None:
        exc = ReproError("connection closed")
        try:
            state.txn.__exit__(type(exc), exc, None)
        except ReproError:
            pass
        state.txn = None
    session.close()


# ---------------------------------------------------------------------------
# The async pipelined server
# ---------------------------------------------------------------------------


class AsyncDatabaseServer:
    """Asyncio event-loop server with request pipelining + log shipping.

    Per connection, a reader coroutine accepts statements as fast as the
    client sends them and a responder coroutine executes them one at a
    time (sessions are single-statement engines) on a **shared bounded
    worker pool**, framing responses back strictly in send order.  A
    client that writes N statements before reading anything therefore
    pays one round trip for the whole batch instead of N.

    Admission control: at most *max_queue* statements may be outstanding
    (queued or running) server-wide.  Beyond that, new statements are
    answered — still in order — with ``error: server overloaded ...``
    and counted in ``server.rejected``; the live backlog is the
    ``server.queue_depth`` gauge, and time spent queued is attributed to
    the ``Server/Queue`` wait event.

    A ``REPLICATE <seq>`` first line switches the connection into WAL
    log shipping (see :mod:`repro.replication`): the server attaches the
    peer to the database's :class:`~repro.replication.ReplicationHub`
    (created on first use), streams the snapshot + every committed batch
    as JSON lines, and consumes acks to surface per-replica lag in
    ``SYS.REPLICAS``.
    """

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 7474,
        workers: Optional[int] = None,
        max_queue: int = 128,
        ping_interval: float = 0.5,
    ):
        self.db = db
        self.workers = workers or min(8, (os.cpu_count() or 2))
        self.max_queue = max_queue
        self.ping_interval = ping_interval
        self._host = host
        self._port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping: Optional[asyncio.Event] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._address: Optional[tuple[str, int]] = None
        self._started = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        #: statements admitted and not yet finished (server-wide)
        self._queued = 0
        self._queued_latch = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("server is not listening yet")
        return self._address

    def serve_forever(self) -> None:
        """Run the event loop on the calling thread until :meth:`shutdown`."""
        try:
            asyncio.run(self._main())
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=True)

    def serve_background(self) -> threading.Thread:
        """Run the event loop on a daemon thread; returns once bound."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-async-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self._thread

    def shutdown(self) -> None:
        loop, stopping = self._loop, self._stopping
        if loop is not None and stopping is not None:
            try:
                loop.call_soon_threadsafe(stopping.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=10)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-worker"
        )
        try:
            server = await asyncio.start_server(
                self._client, self._host, self._port, limit=_LINE_LIMIT
            )
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            raise
        self._address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            await self._stopping.wait()

    # -- per-connection plumbing -------------------------------------------

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername") or ("?", 0)
        peer = "%s:%s" % tuple(peername[:2])
        db = self.db
        session = db.session(name=f"client-{peer}")
        state = _ClientState()
        queue: asyncio.Queue = asyncio.Queue()
        responder = asyncio.ensure_future(
            self._respond_loop(queue, writer, session, state)
        )
        try:
            await self._client_reader(reader, writer, queue, responder, peer)
        except asyncio.CancelledError:
            pass  # server shutdown: fall through to the hangup below
        finally:
            responder.cancel()
            self._drain_queue(queue)
            _hangup(session, state)
            writer.close()

    async def _client_reader(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        queue: asyncio.Queue,
        responder: "asyncio.Future",
        peer: str,
    ) -> None:
        """Accept statements as fast as the client sends them (the
        pipelining half); the responder drains the queue in order."""
        while not responder.done():
            try:
                raw = await reader.readline()
            except (ConnectionResetError, BrokenPipeError):
                break  # a reset client has hung up, like an end of stream
            if not raw:
                break
            line = raw.decode("utf-8", errors="replace").strip()
            upper = line.upper()
            if upper == "REPLICATE" or upper.startswith("REPLICATE "):
                # drain the pipeline, then switch to log shipping
                await queue.put(None)
                await responder
                await self._stream_wal(reader, writer, peer)
                return
            if METRICS.enabled:
                METRICS.inc("server.requests")
            with self._queued_latch:
                admit = self._queued < self.max_queue
                if admit:
                    self._queued += 1
                depth = self._queued
            if METRICS.enabled:
                METRICS.set_gauge("server.queue_depth", depth)
            if admit:
                await queue.put((line, time.perf_counter()))
            else:
                if METRICS.enabled:
                    METRICS.inc("server.rejected")
                await queue.put(
                    (
                        "error: server overloaded: admission queue is "
                        f"full ({self.max_queue} statements outstanding);"
                        " retry",
                        None,
                    )
                )
        await queue.put(None)
        await responder

    async def _respond_loop(
        self,
        queue: asyncio.Queue,
        writer: asyncio.StreamWriter,
        session: Session,
        state: _ClientState,
    ) -> None:
        """Write framed responses strictly in arrival order.

        Whatever is already queued behind the head item runs with it in
        one worker hop, and the batch's replies go out in one coalesced
        write — a pipelined client pays the loop/executor round-trip and
        the socket write per *batch*, not per statement.
        """
        loop = asyncio.get_running_loop()
        while True:
            item = await queue.get()
            closing = item is None
            batch = [] if closing else [item]
            while not closing:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    closing = True
                else:
                    batch.append(extra)
            if batch:
                results = await loop.run_in_executor(
                    self._pool, self._execute_batch, session, state, batch
                )
                try:
                    writer.write(
                        b"".join(_frame(text) for text, _ in results)
                    )
                    await writer.drain()
                except (ConnectionError, OSError):
                    # dead client: stop executing its backlog; closing the
                    # transport pops the reader loop out of readline()
                    writer.close()
                    return
                if not results[-1][1]:  # a .quit ended the batch
                    writer.close()
                    return
            if closing:
                return

    def _execute_batch(
        self,
        session: Session,
        state: _ClientState,
        batch: list,
    ) -> list:
        """Worker-thread entry: run a run of queued statements back to
        back.  Every admitted item is un-admitted here, even when a
        ``.quit`` earlier in the batch stops execution of the rest."""
        results = []
        done = False
        for line, enqueued in batch:
            if enqueued is None:
                if not done:  # pre-rendered admission reject
                    results.append((line, True))
                continue
            try:
                if done:
                    continue  # statements pipelined after a .quit
                token = WAITS.enter("Server/Queue")
                token.started = enqueued  # waited since admission
                WAITS.exit(token)
                payload, keep = process_statement(
                    self.db, session, state, line
                )
                results.append((payload, keep))
                if not keep:
                    done = True
            finally:
                self._unadmit()
        return results

    def _unadmit(self) -> None:
        with self._queued_latch:
            self._queued -= 1
            depth = self._queued
        if METRICS.enabled:
            METRICS.set_gauge("server.queue_depth", depth)

    def _drain_queue(self, queue: asyncio.Queue) -> None:
        """Un-admit statements a dead connection left behind: they were
        counted at admission but will never reach a worker."""
        while True:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is not None and item[1] is not None:
                self._unadmit()

    # -- log shipping (primary side) ---------------------------------------

    async def _stream_wal(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer: str,
    ) -> None:
        from repro.replication import ReplicationHub, ReplicaState

        db = self.db
        loop = asyncio.get_running_loop()
        hub = db.replication
        problem = None
        if isinstance(hub, ReplicaState):
            problem = "this server is itself a replica; replicate from the primary"
        elif db.wal is None:
            problem = "replication needs a WAL-enabled (disk-backed) primary"
        if problem is not None:
            try:
                writer.write(_frame(f"error: {problem}"))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        if hub is None:
            hub = ReplicationHub(db)
            db.replication = hub
        outgoing: asyncio.Queue = asyncio.Queue()

        def deliver(data: bytes) -> None:
            # commit threads hand batches to the event loop; the pump
            # coroutine owns the socket
            loop.call_soon_threadsafe(outgoing.put_nowait, data)

        # attach checkpoints + snapshots the whole database — off-loop
        link = await loop.run_in_executor(self._pool, hub.attach, deliver, peer)
        pump = asyncio.ensure_future(self._pump_batches(outgoing, writer, hub))
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                try:
                    message = json.loads(raw)
                except ValueError:
                    continue
                if message.get("type") == "ack":
                    hub.ack(link, message.get("seq", 0))
        finally:
            hub.detach(link)
            pump.cancel()
            writer.close()

    async def _pump_batches(
        self, outgoing: asyncio.Queue, writer: asyncio.StreamWriter, hub
    ) -> None:
        """Drain shipped batches to one replica; heartbeat when idle so
        the replica can observe lag (and liveness) without traffic."""
        try:
            while True:
                try:
                    data = await asyncio.wait_for(
                        outgoing.get(), timeout=self.ping_interval
                    )
                except asyncio.TimeoutError:
                    data = hub.ping()
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            pass


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class LineClient:
    """Blocking client for the line protocol (tests + benchmarks)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def _write_statement(self, statement: str) -> None:
        self._file.write((statement.strip() + "\n").encode("utf-8"))

    def _read_reply(self) -> str:
        header = self._file.readline()
        if not header:
            raise ConnectionError("connection closed by server (no header)")
        if not header.startswith(b"#"):
            raise ConnectionError(f"bad response header: {header!r}")
        count = int(header[1:])
        lines = []
        for _ in range(count):
            line = self._file.readline()
            if not line.endswith(b"\n"):
                # readline() returns b"" (or a partial line) at EOF — a
                # short payload must be an error, never silent truncation
                raise ConnectionError(
                    f"connection closed mid-payload "
                    f"(got {len(lines)} of {count} lines)"
                )
            lines.append(line.decode("utf-8"))
        return "".join(lines)

    def send(self, statement: str) -> str:
        """Send one statement; return the response payload as text."""
        self._write_statement(statement)
        self._file.flush()
        return self._read_reply()

    def pipeline(self, statements) -> list[str]:
        """Send a batch of statements before reading any response.

        The whole batch costs one round trip; responses come back in
        statement order.  Keep batches under the server's admission bound
        or the tail gets ``error: server overloaded`` replies.
        """
        statements = list(statements)
        for statement in statements:
            self._write_statement(statement)
        self._file.flush()
        return [self._read_reply() for _ in statements]

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="serve one NF2 database to concurrent line-protocol clients",
    )
    parser.add_argument("database", nargs="?", default=None,
                        help="database file (omit for in-memory)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7474)
    parser.add_argument("--init", default=None,
                        help="';'-separated statements to run before serving")
    parser.add_argument("--mvcc", action="store_true",
                        help="open with MVCC snapshot reads "
                             "(enables BEGIN SNAPSHOT)")
    parser.add_argument("--replica-of", default=None, metavar="HOST:PORT",
                        help="serve a read-only replica tailing this "
                             "primary's WAL (PROMOTE fails it over)")
    parser.add_argument("--workers", type=int, default=None,
                        help="statement worker threads "
                             "(default: min(8, cpus))")
    parser.add_argument("--queue", type=int, default=128,
                        help="admission-control bound on "
                             "outstanding statements (default 128)")
    parser.add_argument("--monitor", action="store_true",
                        help="start the metric time-series recorder and "
                             "install the default SLO objectives "
                             "(REPRO_SLO_* env knobs); HEALTH reports "
                             "burn-rate alert state")
    args = parser.parse_args(argv)

    if args.replica_of:
        from repro.replication import open_replica

        db = open_replica(args.replica_of, path=args.database)
        role = f"replica of {args.replica_of}"
    else:
        db = Database(path=args.database, mvcc=args.mvcc)
        role = "primary"
    if args.init:
        from repro.shell import run_script

        run_script(db, args.init, out=sys.stderr)
    if args.monitor:
        METRICS.enable()
        db.slo.install_default_objectives()
        db.ts.start()
    server = AsyncDatabaseServer(
        db,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.queue,
    )
    # bind before announcing (serve_forever binds lazily)
    thread = server.serve_background()
    host, port = server.address
    print(
        f"serving {args.database or 'in-memory database'} "
        f"({role}) on {host}:{port}",
        flush=True,
    )
    try:
        thread.join()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        if args.database and not db.read_only:
            db.save()
        db.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
