"""Wire-protocol tests for the server.

Covers the async pipelined server (ordering, admission control, the
``Server/Queue`` wait event) and the protocol regressions fixed in this
PR: ``_frame``/``readline`` desync on ``str.splitlines`` specials,
silent truncation on mid-payload EOF, executing statements for a dead
client, and case-sensitive ``.quit``.
"""

import socket
import threading
import time

import pytest

from repro import obs
from repro.concurrency import LockMode
from repro.database import Database
from repro.server import AsyncDatabaseServer, LineClient, _frame


def _make_db():
    db = Database()
    db.execute("CREATE TABLE T (ID INT, NAME STRING)")
    return db


@pytest.fixture(params=["async"])
def served(request):
    """One in-memory database behind the server."""
    db = _make_db()
    server = AsyncDatabaseServer(db, port=0)
    server.serve_background()
    try:
        yield db, server
    finally:
        server.shutdown()
        db.close()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# -- framing ---------------------------------------------------------------


def test_frame_counts_newlines_only():
    # str.splitlines would split these into phantom payload lines the
    # reader (readline, \n only) could never find — desyncing the stream
    for sneaky in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                   " ", " "):
        text = f"a{sneaky}b"
        framed = _frame(text + "\n")
        assert framed.startswith(b"#1\n"), repr(sneaky)
        assert framed.decode("utf-8").count("\n") == 2  # header + 1 line
    assert _frame("") == b"#0\n"
    assert _frame("x\ny\n") == b"#2\nx\ny\n"
    assert _frame("x\ny") == b"#2\nx\ny\n"


def test_vertical_tab_value_roundtrips(served):
    db, server = served
    host, port = server.address
    with LineClient(host, port) as client:
        assert "affected" in client.send(
            "INSERT INTO T VALUES (1, 'above\x0bbelow')"
        )
        reply = client.send("SELECT t.NAME FROM t IN T WHERE t.ID = 1")
        # the value crosses the wire inside ONE payload line...
        assert "above\x0bbelow" in reply
        # ...and the stream stays in sync for the next exchange
        assert "1 tuple affected" in client.send(
            "INSERT INTO T VALUES (2, 'plain')"
        )


# -- client EOF handling ---------------------------------------------------


def test_line_client_raises_on_mid_payload_eof():
    """A server dying mid-payload must raise, not truncate silently."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()

    def half_reply():
        conn, _ = listener.accept()
        conn.recv(4096)  # the statement
        conn.sendall(b"#5\nonly one line arrives\n")
        conn.close()

    thread = threading.Thread(target=half_reply, daemon=True)
    thread.start()
    try:
        client = LineClient(host, port, timeout=5)
        with pytest.raises(ConnectionError, match="mid-payload"):
            client.send("SELECT t.ID FROM t IN T")
        client.close()
    finally:
        listener.close()
        thread.join(timeout=5)


def test_line_client_raises_on_missing_header():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()

    def no_reply():
        conn, _ = listener.accept()
        conn.recv(4096)
        conn.close()  # EOF where the #<n> header should be

    thread = threading.Thread(target=no_reply, daemon=True)
    thread.start()
    try:
        client = LineClient(host, port, timeout=5)
        with pytest.raises(ConnectionError, match="no header"):
            client.send("SELECT t.ID FROM t IN T")
        client.close()
    finally:
        listener.close()
        thread.join(timeout=5)


# -- dead clients ----------------------------------------------------------


def test_dead_client_rolls_back_and_stops(served):
    """A client that vanishes (RST) mid-pipeline must not keep its
    transaction's locks, and the server must stop serving the corpse."""
    db, server = served
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5)
    payload = "BEGIN\n" + "".join(
        f"INSERT INTO T VALUES ({i}, 'ghost')\n" for i in range(20)
    )
    sock.sendall(payload.encode("utf-8"))
    time.sleep(0.2)  # let some statements execute
    # RST on close: the server's next write (or read) fails immediately
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER,
        # onoff=1, linger=0 -> abortive close
        b"\x01\x00\x00\x00\x00\x00\x00\x00",
    )
    sock.close()
    assert _wait_for(lambda: not db.active_sessions())
    assert _wait_for(lambda: db.locks.stats()["lock.granted"] == 0)
    # the explicit transaction was rolled back: no ghost rows survive
    assert db.query("SELECT t.ID FROM t IN T").to_plain() == []
    # and the server still serves new clients
    with LineClient(host, port) as client:
        assert "affected" in client.send("INSERT INTO T VALUES (99, 'alive')")


def test_reset_connection_is_an_end_of_stream(served, caplog):
    """A reset while the server waits for the next line ends the stream
    like an orderly close: the session's locks go and nothing is logged
    as an error."""
    db, server = served
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5)
    reader = sock.makefile("r", encoding="utf-8")
    for statement in ("BEGIN", "INSERT INTO T VALUES (1, 'ghost')"):
        sock.sendall((statement + "\n").encode("utf-8"))
        header = reader.readline()
        for _ in range(int(header[1:])):
            reader.readline()
    assert db.locks.stats()["lock.granted"] > 0
    # the server is parked in readline(); an abortive close resets it
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER,
        b"\x01\x00\x00\x00\x00\x00\x00\x00",
    )
    reader.close()
    sock.close()
    assert _wait_for(lambda: not db.active_sessions())
    assert _wait_for(lambda: db.locks.stats()["lock.granted"] == 0)
    assert db.query("SELECT t.ID FROM t IN T").to_plain() == []
    errors = [r for r in caplog.records if r.levelname in ("ERROR", "CRITICAL")]
    assert errors == [], [r.getMessage() for r in errors]


# -- dot-command case ------------------------------------------------------


@pytest.mark.parametrize("verb", [".quit", ".QUIT", ".Exit"])
def test_quit_matches_case_insensitively(served, verb):
    db, server = served
    host, port = server.address
    client = LineClient(host, port)
    assert client.send(verb).strip() == "bye"
    with pytest.raises(ConnectionError):
        client.send("SELECT t.ID FROM t IN T")
    client.close()
    assert _wait_for(lambda: not db.active_sessions())


def test_dot_commands_match_case_insensitively(served):
    db, server = served
    host, port = server.address
    with LineClient(host, port) as client:
        lower = client.send(".tables")
        upper = client.send(".TABLES")
        # the same SYS.TABLES rows either way
        assert upper == lower and "| T " in upper and "(1 tuple)" in upper


# -- pipelining ------------------------------------------------------------


def test_pipelined_responses_come_back_in_order():
    db = _make_db()
    server = AsyncDatabaseServer(db, port=0)
    server.serve_background()
    host, port = server.address
    try:
        with LineClient(host, port) as client:
            inserts = [
                f"INSERT INTO T VALUES ({i}, 'row-{i}')" for i in range(20)
            ]
            assert all("affected" in r for r in client.pipeline(inserts))
            selects = [
                f"SELECT t.NAME FROM t IN T WHERE t.ID = {i}"
                for i in range(20)
            ]
            replies = client.pipeline(selects)
            for i, reply in enumerate(replies):
                assert f"row-{i}" in reply, f"reply {i} out of order"
    finally:
        server.shutdown()
        db.close()


# -- admission control -----------------------------------------------------


def test_admission_control_sheds_load_in_order():
    db = _make_db()
    db.execute("INSERT INTO T VALUES (1, 'one')")
    server = AsyncDatabaseServer(db, port=0, workers=1, max_queue=2)
    server.serve_background()
    host, port = server.address
    obs.METRICS.enable()
    obs.METRICS.reset()  # counters are process-global
    try:
        holder = db.session(name="blocker")
        txn = holder.transaction()
        txn.__enter__()
        try:
            with holder._statement("<test> hold table-X"):
                holder.lock(("table", "T"), LockMode.X)

                client = LineClient(host, port)
                total = 8
                for _ in range(total):
                    client._write_statement("SELECT t.ID FROM t IN T")
                client._file.flush()
                # all 8 arrive; 2 admitted (1 running + 1 queued), 6 shed
                assert _wait_for(
                    lambda: obs.METRICS.totals().get("server.rejected", 0)
                    >= total - 2
                )
            exc = RuntimeError("release")
            txn.__exit__(type(exc), exc, None)
        finally:
            holder.close()

        replies = [client._read_reply() for _ in range(total)]
        client.close()
        # in-order shedding: the admitted statements answer first, every
        # shed statement reports the overload instead of hanging
        assert all("(1 tuple)" in r for r in replies[:2])
        assert all("server overloaded" in r for r in replies[2:])
        totals = obs.METRICS.totals()
        assert totals.get("server.rejected") == total - 2
        assert totals.get("server.requests", 0) >= total
        # queued time is attributed to the Server/Queue wait event
        assert totals.get("wait.count", 0) > 0
        assert obs.WAITS.totals().get("Server/Queue", (0, 0))[0] >= 1
    finally:
        obs.METRICS.disable()
        server.shutdown()
        db.close()


def test_server_queue_metrics_and_wait_on_normal_load():
    db = _make_db()
    server = AsyncDatabaseServer(db, port=0)
    server.serve_background()
    host, port = server.address
    obs.METRICS.enable()
    obs.METRICS.reset()  # counters are process-global
    try:
        with LineClient(host, port) as client:
            client.pipeline(
                [f"INSERT INTO T VALUES ({i}, 'x')" for i in range(10)]
            )
        totals = obs.METRICS.totals()
        assert totals.get("server.requests", 0) >= 10
        assert totals.get("server.rejected", 0) == 0
        waits = obs.WAITS.totals()
        assert waits.get("Server/Queue", (0, 0))[0] >= 10
    finally:
        obs.METRICS.disable()
        server.shutdown()
        db.close()


# -- replication handshake guards -----------------------------------------


def test_async_server_refuses_replicate_without_wal():
    db = _make_db()  # in-memory: no WAL to ship
    server = AsyncDatabaseServer(db, port=0)
    server.serve_background()
    host, port = server.address
    try:
        with LineClient(host, port) as client:
            reply = client.send("REPLICATE 0")
            assert "error" in reply and "WAL" in reply
    finally:
        server.shutdown()
        db.close()
