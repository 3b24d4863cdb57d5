"""WAL log-shipping replication tests (PR 9).

A disk-backed primary served by the async server ships committed page
images to replicas that continuously redo them into their own buffer
pools.  Covered here: snapshot + streaming apply, read-only enforcement
(in-process and over the wire), ASOF/temporal reads on a replica, index
maintenance through redo, lag observability in SYS.WAL / SYS.REPLICAS,
in-process promotion, multi-replica convergence, and a kill-the-primary
failover with a subprocess primary.
"""

import datetime
import io
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.database import Database
from repro.errors import ExecutionError, UnknownTableError, WalError
from repro.replication import (
    ReplicaState,
    ReplicationHub,
    apply_batch,
    open_replica,
    promote,
)
from repro.server import AsyncDatabaseServer, LineClient

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


@pytest.fixture
def primary(tmp_path):
    """Disk-backed (WAL-enabled) primary behind an async server."""
    db = Database(str(tmp_path / "primary.db"))
    db.execute("CREATE TABLE T (ID INT, NAME STRING)")
    server = AsyncDatabaseServer(db, port=0)
    server.serve_background()
    try:
        yield db, server
    finally:
        server.shutdown()
        db.close()


def _replica_of(server, **kw):
    host, port = server.address
    return open_replica(f"{host}:{port}", **kw)


def _ids(db):
    return sorted(
        row["ID"] for row in db.query("SELECT t.ID FROM t IN T").to_plain()
    )


def _safe_ids(db):
    # before the attach snapshot lands the replica has no catalog yet
    try:
        return _ids(db)
    except UnknownTableError:
        return None


def _sync(primary_db, replica_db):
    """Block until the replica has applied everything the primary shipped."""
    assert _wait_for(lambda: primary_db.replication is not None), \
        "no replica ever attached"
    hub = primary_db.replication
    assert replica_db.replication.wait_for_seq(hub.seq), "replica lagged out"


# -- snapshot + streaming --------------------------------------------------


def test_snapshot_then_stream(primary):
    db, server = primary
    db.execute("INSERT INTO T VALUES (1, 'before-snapshot')")
    replica = _replica_of(server)
    try:
        # the attach snapshot alone must carry existing data
        assert _wait_for(lambda: _safe_ids(replica) == [1])
        db.execute("INSERT INTO T VALUES (2, 'streamed')")
        db.execute("INSERT INTO T VALUES (3, 'streamed')")
        _sync(db, replica)
        assert _ids(replica) == [1, 2, 3]
        assert replica.replication.lag == 0
        assert replica.replication.last_error is None
    finally:
        replica.close()


def test_replica_lag_is_observable(primary):
    db, server = primary
    replica = _replica_of(server)
    try:
        assert _wait_for(lambda: db.replication is not None)
        for i in range(10):
            db.execute(f"INSERT INTO T VALUES ({i}, 'x')")
        _sync(db, replica)
        rows = replica.query(
            "SELECT w.ROLE, w.SHIPPED_SEQ, w.APPLIED_SEQ, w.REPLICA_LAG "
            "FROM w IN SYS.WAL"
        ).to_plain()
        assert len(rows) == 1
        row = rows[0]
        assert row["ROLE"] == "replica"
        assert row["APPLIED_SEQ"] == row["SHIPPED_SEQ"] == db.replication.seq
        assert row["REPLICA_LAG"] == 0

        # the ack carrying APPLIED_SEQ back upstream is async on top of
        # the apply itself, so poll the primary's view of the link
        def acked():
            rows = db.query(
                "SELECT r.ROLE, r.STATE, r.APPLIED_SEQ FROM r IN SYS.REPLICAS"
            ).to_plain()
            return (
                len(rows) == 1
                and rows[0]["ROLE"] == "downstream"
                and rows[0]["STATE"] == "streaming"
                and rows[0]["APPLIED_SEQ"] == db.replication.seq
            )

        assert _wait_for(acked)
        # the shell's surfaces print the same rows
        from repro.shell import dot_command, health_probe

        out = io.StringIO()
        health_probe(replica, out)
        assert out.getvalue().startswith("health: ok\n")
        assert "| replica | 0 " in out.getvalue()
        out = io.StringIO()
        dot_command(db, ".replicas", out=out)
        assert "downstream" in out.getvalue() and "streaming" in out.getvalue()
    finally:
        replica.close()


def test_multiple_replicas_converge(primary):
    db, server = primary
    replicas = [_replica_of(server) for _ in range(3)]
    try:
        for i in range(20):
            db.execute(f"INSERT INTO T VALUES ({i}, 'fanout')")
        for replica in replicas:
            _sync(db, replica)
            assert _ids(replica) == list(range(20))
        assert len(db.replication.links()) == 3
        assert len(db.query(
            "SELECT r.PEER FROM r IN SYS.REPLICAS"
        ).to_plain()) == 3
    finally:
        for replica in replicas:
            replica.close()


def _catalog_by_table(state):
    """Per-table catalog states without index statistics (a replica
    rebuilds changed tables at the end of its catalog, so compare by
    name)."""
    out = {}
    for table in state["tables"]:
        table = dict(table)
        table["indexes"] = [
            {k: v for k, v in index.items() if k != "stats"}
            for index in table["indexes"]
        ]
        out[table["segment"]["name"]] = table
    return out


def test_replica_falls_behind_reconnects_and_catches_up(primary):
    db, server = primary
    replica = _replica_of(server, reconnect_delay=0.5)
    try:
        db.execute("INSERT INTO T VALUES (1, 'before')")
        _sync(db, replica)
        # the ack is written after the apply: wait until the primary has
        # it, or the cut below can land mid-write as a BrokenPipeError
        assert _wait_for(lambda: all(
            link.acked_seq == db.replication.seq
            for link in db.replication.links()
        ))
        # cut the stream; the tailer waits before it reconnects, and the
        # primary keeps committing — catalog changes included
        replica.replication._tailer._sock.shutdown(socket.SHUT_RDWR)
        db.execute("CREATE INDEX IDX_T_ID ON T (ID)")
        db.execute("CREATE TABLE U (K INT)")
        db.execute("INSERT INTO U VALUES (7)")
        with db.transaction():
            db.execute("DROP TABLE T")
            db.execute("CREATE TABLE T (ID INT, NAME STRING)")
            db.execute("INSERT INTO T VALUES (2, 'recreated')")
        assert replica.replication.applied_seq < db.replication.seq
        _sync(db, replica)  # the re-attach snapshot
        # and deltas on top of the new snapshot
        db.execute("INSERT INTO T VALUES (3, 'after')")
        db.execute("DELETE FROM U u WHERE u.K = 7")
        db.execute("CREATE INDEX IDX_U_K ON U (K)")
        _sync(db, replica)
        assert _ids(replica) == [2, 3]
        primary_catalog = _catalog_by_table(db._catalog_state())
        assert _catalog_by_table(replica.replication._catalog) == primary_catalog
        assert _catalog_by_table(replica._catalog_state()) == primary_catalog
        assert replica.replication.last_error is None
    finally:
        replica.close()


def test_apply_refuses_a_batch_out_of_sequence(tmp_path):
    """A commit delta only applies to the state right before it: a batch
    that skips one raises before touching the replica."""
    db = Database(str(tmp_path / "p.db"))
    db.execute("CREATE TABLE T (ID INT, NAME STRING)")
    hub = ReplicationHub(db)
    db.replication = hub
    inbox = []
    hub.attach(lambda data: inbox.append(json.loads(data)), "in-process")
    db.execute("INSERT INTO T VALUES (1, 'a')")
    db.execute("INSERT INTO T VALUES (2, 'b')")
    snapshot, first, second = inbox
    replica = Database(read_only=True)
    state = ReplicaState("in-process")
    try:
        apply_batch(replica, state, snapshot)
        state.applied_seq = snapshot["seq"]
        with pytest.raises(WalError, match="does not follow"):
            apply_batch(replica, state, second)
        assert _ids(replica) == []
        for message in (first, second):
            apply_batch(replica, state, message)
            state.applied_seq = message["seq"]
        assert _ids(replica) == [1, 2]
    finally:
        replica.close()
        db.close()


# -- read-only enforcement -------------------------------------------------


def test_replica_rejects_writes_in_process(primary):
    db, server = primary
    replica = _replica_of(server)
    try:
        assert _wait_for(lambda: _safe_ids(replica) == [])  # snapshot landed
        for stmt in (
            "INSERT INTO T VALUES (9, 'nope')",
            "DELETE t FROM t IN T WHERE t.ID = 9",
            "CREATE TABLE U (A INT)",
        ):
            with pytest.raises(ExecutionError, match="read-only replica"):
                replica.execute(stmt)
        # reads keep working after the rejections
        assert replica.query("SELECT t.ID FROM t IN T").to_plain() == []
    finally:
        replica.close()


def test_replica_rejects_dml_over_the_wire(primary):
    db, server = primary
    replica = _replica_of(server)
    replica_server = AsyncDatabaseServer(replica, port=0)
    replica_server.serve_background()
    try:
        db.execute("INSERT INTO T VALUES (1, 'primary-data')")
        _sync(db, replica)
        assert _wait_for(lambda: _safe_ids(replica) == [1])
        host, port = replica_server.address
        with LineClient(host, port) as client:
            reply = client.send("INSERT INTO T VALUES (2, 'nope')")
            assert "error" in reply and "read-only replica" in reply
            assert "PROMOTE" in reply  # the error says how to fail over
            assert "(1 tuple)" in client.send("SELECT t.ID FROM t IN T")
    finally:
        replica_server.shutdown()
        replica.close()


# -- temporal / index redo -------------------------------------------------


def test_asof_queries_on_replica(primary):
    from repro.datasets import paper

    db, server = primary
    db.create_table(paper.DEPARTMENTS_SCHEMA, versioned=True)
    tid = db.insert(
        "DEPARTMENTS", paper.DEPARTMENTS_ROWS[0], at=datetime.date(1984, 1, 1)
    )
    replica = _replica_of(server)
    try:
        db.update(
            "DEPARTMENTS", tid, {"BUDGET": 999}, at=datetime.date(1984, 2, 1)
        )
        _sync(db, replica)

        def updated():
            # the update may have committed before the attach snapshot
            # was cut, so sync alone doesn't guarantee the catalog is in
            try:
                rows = replica.query(
                    "SELECT x.BUDGET FROM x IN DEPARTMENTS"
                ).to_plain()
            except UnknownTableError:
                return False
            return [r["BUDGET"] for r in rows] == [999]

        assert _wait_for(updated)
        old = replica.query(
            "SELECT x.BUDGET FROM x IN DEPARTMENTS ASOF '1984-01-15'"
        ).to_plain()
        new = replica.query(
            "SELECT x.BUDGET FROM x IN DEPARTMENTS"
        ).to_plain()
        assert [r["BUDGET"] for r in old] == [320_000]
        assert [r["BUDGET"] for r in new] == [999]
    finally:
        replica.close()


def test_index_follows_replication(primary):
    db, server = primary
    db.create_index("IDX_T_ID", "T", "ID")
    replica = _replica_of(server)
    try:
        for i in range(50):
            db.execute(f"INSERT INTO T VALUES ({i}, 'indexed')")
        _sync(db, replica)
        # redo rebuilt the index on the replica's side of the catalog
        assert "IDX_T_ID" in replica.catalog.table("T").indexes
        got = replica.query(
            "SELECT t.NAME FROM t IN T WHERE t.ID = 37"
        ).to_plain()
        assert [r["NAME"] for r in got] == ["indexed"]
    finally:
        replica.close()


# -- promotion -------------------------------------------------------------


def test_promote_in_process(primary):
    db, server = primary
    db.execute("INSERT INTO T VALUES (1, 'survivor')")
    replica = _replica_of(server)
    try:
        assert _wait_for(lambda: _safe_ids(replica) == [1])  # snapshot landed
        promote(replica)
        assert not replica.read_only
        replica.execute("INSERT INTO T VALUES (2, 'post-promote')")
        assert _ids(replica) == [1, 2]
        with pytest.raises(ExecutionError, match="already promoted"):
            promote(replica)
    finally:
        replica.close()


def test_promote_non_replica_raises(primary):
    db, _server = primary
    with pytest.raises(ExecutionError, match="not a replica"):
        promote(db)


# -- failover --------------------------------------------------------------


def _spawn_primary(db_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.server", str(db_path),
            "--port", "0",
            "--init", "CREATE TABLE T (ID INT, NAME STRING)",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    # --init echoes its statements before the serving banner
    for _ in range(20):
        banner = proc.stdout.readline()
        match = re.search(r"serving .* on ([\d.]+):(\d+)", banner)
        if match:
            return proc, match.group(1), int(match.group(2))
    raise AssertionError(f"no serving banner, last line: {banner!r}")


def test_failover_promotes_replica_with_consistent_prefix(tmp_path):
    """Kill the primary process mid-load; the replica must hold a
    consistent prefix of the committed stream, then take writes after
    PROMOTE."""
    proc, host, port = _spawn_primary(tmp_path / "failover.db")
    replica = None
    loader_sent = []
    try:
        replica = open_replica(f"{host}:{port}")

        def load():
            client = LineClient(host, port, timeout=10)
            try:
                for i in range(10_000):
                    reply = client.send(f"INSERT INTO T VALUES ({i}, 'load')")
                    if "affected" not in reply:
                        return
                    loader_sent.append(i)
            except (ConnectionError, OSError):
                return

        loader = threading.Thread(target=load, daemon=True)
        loader.start()
        # let a healthy amount of traffic replicate, then pull the plug
        assert _wait_for(lambda: replica.replication.applied_seq >= 10)
        proc.kill()
        proc.wait(timeout=10)
        loader.join(timeout=10)
        assert not loader.is_alive()

        applied = replica.replication.applied_seq
        assert applied >= 10
        # every applied commit is a whole INSERT: IDs are a contiguous
        # prefix of the load (no torn batch, no gap)
        ids = _ids(replica)
        assert ids == list(range(len(ids)))
        assert len(ids) >= 10
        # the replica never applied more than the loader committed (+1
        # in-flight insert whose ack the loader may have missed)
        assert len(ids) <= len(loader_sent) + 1

        promote(replica)
        replica.execute(
            f"INSERT INTO T VALUES ({len(ids)}, 'after-failover')"
        )
        assert _ids(replica) == list(range(len(ids) + 1))
    finally:
        if replica is not None:
            replica.close()
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_replica_reports_tailer_error_against_dead_primary():
    # nothing listens on this port: the tailer must keep retrying and
    # surface the failure instead of dying silently
    replica = open_replica("127.0.0.1:1", reconnect_delay=0.05)
    try:
        assert _wait_for(lambda: replica.replication.last_error is not None)
        rows = list(replica.replication.replica_rows())
        assert rows and rows[0]["STATE"] != "streaming"
    finally:
        replica.close()
