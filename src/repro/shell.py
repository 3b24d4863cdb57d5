"""An interactive shell for the NF2 DBMS:
``python -m repro.shell [--mvcc] [database-file]``.

Statements end with ``;``; ``EXPLAIN ANALYZE <query>;`` prints the
annotated plan.  The read-only dot-commands each print a canned
``SELECT`` over one ``SYS`` view, through the same printer as any other
statement (so they appear in ``SYS.QUERIES`` too)::

    .tables              SYS.TABLES: kind, tuples, versioning, depth
    .storage             SYS.TABLES: pages, fill factor, MD/data split
    .indexes             SYS.INDEXES: definitions + cost statistics
    .stats               SYS.METRICS: every series without its BUCKETS
    .queries [N]         SYS.QUERIES: the last N statements (default 10)
    .ash [on|off|N]      start/stop the active-session-history sampler,
                         or SYS.ASH: its last N samples (default 10)
    .wal                 SYS.WAL: log size, commits, fsyncs, recovery
    .replicas            SYS.REPLICAS: attached replicas / upstream, lag
    .locks               SYS.LOCKS: lock grants and waiters
    .transactions        SYS.TRANSACTIONS: active MVCC snapshots
    .health              health: ok|pending|alerting from SYS.SLOS, then
                         SYS.SLOS and SYS.WAL role + lag (= HEALTH verb)
    .alerts [eval]       SYS.SLOS, then SYS.ALERTS ('eval' forces an
                         SLO evaluation first)

The other dot-commands control the engine::

    .schema NAME         show a table's DDL
    .metrics [FILE]      metrics in Prometheus text format (print / export)
    .slowlog [MS [FILE]] show/set the slow-query threshold + sink
    .profile on|off      enable/disable observability (metrics + tracing;
                         .stats then accumulates engine counters)
    .trace FILE          export the last statement trace (Chrome format)
    .trace export FILE [ID]
                         export every retained trace (or just trace ID)
                         into one Chrome file, one lane per thread
    .verify              consistency check (CHECK TABLE)
    .save                persist (disk-backed databases)
    .checkpoint          flush pages + truncate the write-ahead log
    .help                this text
    .quit                leave
"""

from __future__ import annotations

import sys
from typing import Optional

from repro import obs
from repro.database import Database
from repro.errors import ReproError
from repro.model.ddl import schema_to_ddl
from repro.model.values import TableValue
from repro.render import render_table

PROMPT = "nf2> "
CONTINUATION = "...> "

#: the read-only dot-commands: ';'-separated canned SELECTs over SYS views
CANNED = {
    ".tables": "SELECT t.NAME, t.KIND, t.TUPLES, t.VERSIONED, t.VERSIONING, "
    "t.DEPTH, t.INDEXES FROM t IN SYS.TABLES",
    ".storage": "SELECT t.NAME, t.TUPLES, t.PAGES, t.BYTES_USED, t.FILL_FACTOR, "
    "t.MD_PAGES, t.DATA_PAGES, t.MD_SUBTUPLES, t.DATA_SUBTUPLES FROM t IN SYS.TABLES",
    ".indexes": "SELECT i.NAME, i.TABLE_NAME, i.PATH, i.KIND, i.MODE, "
    "i.ENTRY_COUNT, i.DISTINCT_KEYS, i.MAX_POSTING_LIST FROM i IN SYS.INDEXES",
    ".stats": "SELECT m.NAME, m.KIND, m.LABELS, m.VALUE, m.COUNT, m.SUM, m.MIN, "
    "m.MAX, m.AVG FROM m IN SYS.METRICS",
    ".queries": "SELECT q.FINGERPRINT, q.KIND, q.LATENCY_MS, q.TUPLES, q.SESSION, "
    "q.THREAD, q.TEXT, q.ERROR FROM q IN SYS.QUERIES",
    ".ash": "SELECT a.SEQ, a.SESSION, a.STATE, a.STATEMENT, a.WAIT_EVENT, "
    "a.WAIT_MS FROM a IN SYS.ASH",
    ".wal": "SELECT w.PATH, w.SIZE_BYTES, w.BYTES_SINCE_CHECKPOINT, "
    "w.AUTO_CHECKPOINT_BYTES, w.RECORDS_APPENDED, w.BYTES_APPENDED, w.FSYNCS, "
    "w.COMMITS, w.ABORTS, w.CHECKPOINTS, w.SHIP_ERRORS, w.IN_TXN, "
    "w.UNLOGGED_DIRTY_PAGES, w.ROLE, w.SHIPPED_SEQ, w.APPLIED_SEQ, "
    "w.REPLICA_LAG, w.REPLICAS, w.LAST_RECOVERY FROM w IN SYS.WAL",
    ".replicas": "SELECT r.ROLE, r.PEER, r.STATE, r.SHIPPED_SEQ, r.APPLIED_SEQ, "
    "r.LAG, r.BATCHES, r.PAGES, r.BYTES FROM r IN SYS.REPLICAS",
    ".locks": "SELECT l.TXN, l.TXN_NAME, l.LEVEL, l.RESOURCE, l.MODE, l.GRANTED "
    "FROM l IN SYS.LOCKS",
    ".transactions": "SELECT t.SID, t.SESSION, t.ISOLATION, t.PINNED, t.AXIS, "
    "t.POINT, t.TXN, t.COMMITTED_LSN, t.WATERMARK, t.GC_BACKLOG, "
    "t.LAST_WAL_LSN FROM t IN SYS.TRANSACTIONS",
    ".alerts": "SELECT s.NAME, s.KIND, s.STATE, s.VALUE, s.BURN_RATE, s.FIRED "
    "FROM s IN SYS.SLOS; SELECT a.SEQ, a.SLO, a.FROM_STATE, a.TO_STATE, a.VALUE, "
    "a.MESSAGE FROM a IN SYS.ALERTS",
    ".health": "SELECT s.NAME, s.KIND, s.STATE, s.VALUE, s.BURN_RATE "
    "FROM s IN SYS.SLOS; SELECT w.ROLE, w.REPLICA_LAG FROM w IN SYS.WAL",
}


def print_result(result, out=sys.stdout) -> None:
    """Print one statement's outcome: a table, plan text, or a count."""
    if isinstance(result, TableValue):
        print(render_table(result, title="RESULT"), file=out)
        print(f"({len(result)} tuple{'s' if len(result) != 1 else ''})", file=out)
    elif isinstance(result, str):
        print(result, file=out)  # EXPLAIN [ANALYZE] plan text
    elif isinstance(result, int):
        print(f"{result} tuple{'s' if result != 1 else ''} affected", file=out)
    elif result is not None:
        print(f"ok: {getattr(result, 'name', result)}", file=out)
    else:
        print("ok", file=out)


def execute_line(db: Database, statement: str, out=sys.stdout, last=None) -> None:
    """Run one statement and print its outcome; *last* keeps only a
    query's last N rows."""
    try:
        result = db.execute(statement)
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return
    if last is not None and isinstance(result, TableValue):
        del result.rows[: max(0, len(result.rows) - last)]
    print_result(result, out)


def health_probe(db: Database, out=sys.stdout) -> None:
    """The readiness probe behind ``.health`` and the server's ``HEALTH``.
    Its first line is ``health: ok|pending|alerting``, derived from
    ``SYS.SLOS.STATE``; the ``SYS.SLOS`` rows and the ``SYS.WAL`` role and
    replica lag follow."""
    slos, wal = CANNED[".health"].split(";")
    result = db.query(slos)
    states = {row["STATE"] for row in result.rows}
    status = "pending" if "PENDING" in states else "ok"
    status = "alerting" if "FIRING" in states else status
    print(f"health: {status}", file=out)
    print_result(result, out)
    execute_line(db, wal.strip(), out)


def dot_command(db: Database, line: str, out=sys.stdout) -> bool:
    """Handle a dot-command; returns False when the shell should exit."""
    parts = line.split()
    # dot-commands match case-insensitively, like the language keywords
    # (.QUIT behaves exactly like .quit — on the wire too)
    command = parts[0].lower()
    arg = parts[1].lower() if len(parts) > 1 else None
    if command in (".quit", ".exit"):
        return False
    if command == ".help":
        print(__doc__, file=out)
    elif command == ".health":
        health_probe(db, out)
    elif command == ".ash" and arg == "on":
        db.ash.start()
        print(f"ash sampler on (period {db.ash.period_ms:g} ms, "
              f"keep {db.ash.samples.maxlen})", file=out)
    elif command == ".ash" and arg == "off":
        db.ash.stop()
        print(f"ash sampler off ({db.ash.ticks} ticks taken)", file=out)
    elif command in CANNED:
        last = None
        if command in (".queries", ".ash"):
            if arg is not None and not arg.isdigit():
                usage = "[on|off|N]" if command == ".ash" else "[N]"
                print(f"usage: {command} {usage}", file=out)
                return True
            last = int(arg or 10)
        if command == ".alerts" and arg == "eval":
            events = db.slo.evaluate()
            print(f"evaluated {len(db.slo.objectives)} objectives, "
                  f"{len(events)} transitions", file=out)
        for statement in CANNED[command].split(";"):
            execute_line(db, statement.strip(), out, last=last)
    elif command == ".schema":
        if len(parts) < 2:
            print("usage: .schema TABLE", file=out)
        else:
            try:
                print(schema_to_ddl(db.table_schema(parts[1])), file=out)
            except ReproError as exc:
                print(f"error: {exc}", file=out)
    elif command == ".metrics":
        text = obs.METRICS.to_prometheus()
        if len(parts) > 1:
            with open(parts[1], "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {parts[1]}", file=out)
        elif not text:
            print("no metrics recorded — try .profile on first", file=out)
        else:
            out.write(text)
    elif command == ".slowlog":
        if len(parts) > 1:
            try:
                threshold = None if arg == "off" else float(parts[1])
            except ValueError:
                print("usage: .slowlog [MS|off [FILE]]", file=out)
                threshold = False  # sentinel: bad input
            if threshold is not False:
                db.query_log.configure(
                    slow_ms=threshold,
                    slow_log_path=parts[2] if len(parts) > 2 else None,
                )
        if db.query_log.slow_ms is None:
            print("  slow-query log off", file=out)
        else:
            print(f"  statements >= {db.query_log.slow_ms:g} ms are appended "
                  f"to {db.query_log.slow_log_path} "
                  f"({db.query_log.slow_logged} logged so far)", file=out)
    elif command == ".profile":
        if arg == "on":
            obs.enable()
            print("profiling on (metrics + tracing)", file=out)
        elif arg == "off":
            obs.disable()
            print("profiling off", file=out)
        else:
            state = "on" if obs.METRICS.enabled else "off"
            print(f"usage: .profile on|off (currently {state})", file=out)
    elif command == ".trace":
        if arg == "export":
            if len(parts) < 3:
                print("usage: .trace export FILE [TRACE_ID]", file=out)
            else:
                selected = None
                if len(parts) > 3:
                    trace = obs.TRACER.get(parts[3].lower())
                    if trace is None:
                        print(f"error: no retained trace {parts[3]!r}", file=out)
                        return True
                    selected = [trace]
                try:
                    count = obs.TRACER.export_chrome_many(parts[2], selected)
                except ValueError as exc:
                    print(f"error: {exc}", file=out)
                else:
                    print(f"wrote {count} trace{'s' if count != 1 else ''} to "
                          f"{parts[2]} (load it in https://ui.perfetto.dev)", file=out)
        elif len(parts) < 2:
            print("usage: .trace FILE | .trace export FILE [TRACE_ID]", file=out)
        elif obs.TRACER.last_trace is None:
            print("no finished trace — run a statement with .profile on first",
                  file=out)
        else:
            obs.TRACER.export_chrome(parts[1])
            print(f"wrote {parts[1]} (load it in chrome://tracing or "
                  "https://ui.perfetto.dev)", file=out)
    elif command == ".verify":
        problems = db.verify()
        if problems:
            for problem in problems:
                print(f"  ! {problem}", file=out)
        else:
            print("  database is consistent", file=out)
    elif command == ".save":
        try:
            db.save()
            print("saved", file=out)
        except ReproError as exc:
            print(f"error: {exc}", file=out)
    elif command == ".checkpoint":
        try:
            db.checkpoint()
            print("checkpoint complete (pages flushed, log truncated)", file=out)
        except ReproError as exc:
            print(f"error: {exc}", file=out)
    else:
        print(f"unknown command {command!r}; try .help", file=out)
    return True


def run_script(db: Database, text: str, out=sys.stdout) -> None:
    """Execute ';'-separated statements from a string (non-interactive)."""
    for statement in text.split(";"):
        statement = statement.strip()
        if statement:
            execute_line(db, statement, out=out)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    mvcc = "--mvcc" in argv
    argv = [a for a in argv if a != "--mvcc"]
    path = argv[0] if argv else None
    db = Database(path=path, mvcc=mvcc)
    mode = " (mvcc)" if mvcc else ""
    print(f"AIM-II NF2 shell — {path or 'in-memory'} database{mode}; .help for help")
    buffer = ""
    try:
        while True:
            try:
                line = input(CONTINUATION if buffer else PROMPT)
            except EOFError:
                print()
                break
            stripped = line.strip()
            if not buffer and stripped.startswith("."):
                if not dot_command(db, stripped):
                    break
                continue
            buffer += ("\n" if buffer else "") + line
            while ";" in buffer:
                statement, _, buffer = buffer.partition(";")
                if statement.strip():
                    execute_line(db, statement.strip())
                buffer = buffer.lstrip()
    finally:
        if path:
            db.save()
        db.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
