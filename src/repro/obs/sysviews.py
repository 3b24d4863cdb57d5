"""The ``SYS`` virtual catalog: engine telemetry as extended NF² tables.

The paper's pitch is *an integrated view on flat tables and hierarchies* —
so the reproduction's own telemetry is exposed the same way.  Histogram
buckets are a list-valued subtable under their metric, lock grants are
rows, counter deltas hang under the statement that caused them.  Litwin's
*stored and inherited relations* motivates the construct: these are
relations whose tuples are **computed from engine state at read time**,
never stored.

Views (query them like any table, e.g. ``FROM m IN SYS.METRICS``):

========================  ====================================================
``SYS.METRICS``           one row per metric series (counter / gauge /
                          histogram × label combination), with a ``LABELS``
                          subtable and, for histograms, a ``BUCKETS`` list
``SYS.SESSIONS``          the sessions currently registered on the database
``SYS.LOCKS``             every lock grant and waiter in the lock manager
``SYS.WAL``               one row of write-ahead-log statistics, including
                          the replication role and shipped/applied batch
                          sequence + lag and the last open's recovery
                          summary (zero rows for in-memory / ``wal=False``
                          databases that are not replicas)
``SYS.REPLICAS``          replication links: on a primary one row per
                          attached replica (shipped vs acked sequence,
                          lag); on a replica one row for its upstream
``SYS.TABLES``            the user catalog: kind, cardinality, nesting depth,
                          pages and fill factor, and for NF² tables the
                          MD/data page split and subtuple counts
``SYS.INDEXES``           index definitions + cost-model statistics
``SYS.QUERIES``           the ring of recently finished statements, with
                          ``COUNTERS`` and ``WAITS`` subtables of
                          per-statement deltas and wait-event time
``SYS.ASH``               the active-session-history ring: periodic samples
                          of every session's state, statement, and current
                          wait event, with a ``WAITS`` subtable per sample
``SYS.TRACES``            one row per retained statement trace (tail-based
                          retention: errors / slow / client-armed kept)
``SYS.SPANS``             the flattened span trees of all retained traces,
                          with parent path, depth, and an ``ATTRS`` subtable
``SYS.TRANSACTIONS``      the MVCC snapshot registry: one row per active
                          snapshot with its axis, read point, isolation,
                          and the manager's commit/GC state (zero rows for
                          databases opened without ``mvcc=True``)
``SYS.METRICS_HISTORY``   the time-series recorder's rings: one row per
                          (metric series × resolution tier) with a nested
                          ``SAMPLES`` subtable of timestamped values,
                          deltas, and per-second rates
``SYS.SLOS``              the SLO engine's objectives: declared ceiling /
                          error budget, last measured value and burn rate,
                          alert state, and a per-window ``WINDOWS`` subtable
``SYS.ALERTS``            alert state-machine transition history (OK →
                          PENDING → FIRING → RESOLVED), newest last
========================  ====================================================

The views are read-only (DML and DDL against ``SYS.*`` is rejected) and
non-versioned (``ASOF`` binds to an error like any non-versioned table).
Everything downstream of binding — nesting, EXISTS, subscripting, ORDER
BY, EXPLAIN — works unchanged because the binder and executor only ever
see an ordinary :class:`~repro.model.schema.TableSchema` and a stream of
:class:`~repro.model.values.TupleValue` rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.model.schema import TableSchema, atomic, list_of, nested, table
from repro.model.values import TupleValue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database import Database

#: the view part of every recognized SYS table name, canonical (upper)
SYS_VIEW_NAMES = (
    "METRICS",
    "SESSIONS",
    "LOCKS",
    "WAL",
    "REPLICAS",
    "TABLES",
    "INDEXES",
    "QUERIES",
    "ASH",
    "TRACES",
    "SPANS",
    "TRANSACTIONS",
    "METRICS_HISTORY",
    "SLOS",
    "ALERTS",
)


def is_sys_table(name: str) -> bool:
    """True when *name* is a ``SYS.<view>`` reference (any case)."""
    if not name.upper().startswith("SYS."):
        return False
    return name.upper().split(".", 1)[1] in SYS_VIEW_NAMES


def _view_of(name: str) -> str:
    view = name.upper().split(".", 1)[1]
    if view not in SYS_VIEW_NAMES:
        raise KeyError(name)
    return view


# --------------------------------------------------------------------------
# Schemas (TableSchema names may not contain dots, hence SYS_*)
# --------------------------------------------------------------------------

_LABELS = table("LABELS", atomic("NAME", "STRING"), atomic("VALUE", "STRING"))

_BUCKETS = list_of(
    "BUCKETS",
    atomic("BOUND", "FLOAT"),       # bucket upper bound (inf = overflow)
    atomic("COUNT", "INT"),         # observations in this bucket (raw)
    atomic("CUMULATIVE", "INT"),    # observations at or below BOUND
)

METRICS_SCHEMA = table(
    "SYS_METRICS",
    atomic("NAME", "STRING"),
    atomic("KIND", "STRING"),       # counter | gauge | histogram
    nested("LABELS", _LABELS),
    atomic("VALUE", "FLOAT"),       # counter/gauge value (NULL for histograms)
    atomic("COUNT", "INT"),         # histogram observations (NULL otherwise)
    atomic("SUM", "FLOAT"),
    atomic("MIN", "FLOAT"),
    atomic("MAX", "FLOAT"),
    atomic("AVG", "FLOAT"),
    nested("BUCKETS", _BUCKETS),    # empty for counters/gauges
)

#: per-statement / per-session / per-sample wait-event breakdown
_WAITS = table(
    "WAITS",
    atomic("EVENT", "STRING"),      # e.g. Lock/TableX, WAL/Fsync, IO/PageRead
    atomic("COUNT", "INT"),
    atomic("TIME_MS", "FLOAT"),
)

SESSIONS_SCHEMA = table(
    "SYS_SESSIONS",
    atomic("NAME", "STRING"),
    atomic("THREAD", "STRING"),
    atomic("IN_TXN", "BOOL"),       # inside an explicit transaction block
    atomic("STATEMENTS", "INT"),    # statements executed on this session
    atomic("LOCK_TIMEOUT", "FLOAT"),
    atomic("LAST_LOCK_REQUESTS", "INT"),
    atomic("LAST_LOCK_WAITS", "INT"),
    nested("WAITS", _WAITS),        # lifetime wait totals for the session
)

LOCKS_SCHEMA = table(
    "SYS_LOCKS",
    atomic("TXN", "INT"),
    atomic("TXN_NAME", "STRING"),
    atomic("LEVEL", "STRING"),      # table | object | wal
    atomic("RESOURCE", "STRING"),
    atomic("MODE", "STRING"),       # IS | IX | S | X
    atomic("GRANTED", "BOOL"),      # False: waiting
)

WAL_SCHEMA = table(
    "SYS_WAL",
    atomic("PATH", "STRING"),
    atomic("SIZE_BYTES", "INT"),
    atomic("BYTES_SINCE_CHECKPOINT", "INT"),
    atomic("AUTO_CHECKPOINT_BYTES", "INT"),
    atomic("RECORDS_APPENDED", "INT"),
    atomic("BYTES_APPENDED", "INT"),
    atomic("FSYNCS", "INT"),
    atomic("COMMITS", "INT"),
    atomic("ABORTS", "INT"),
    atomic("CHECKPOINTS", "INT"),
    atomic("SHIP_ERRORS", "INT"),           # log-shipping hook failures
    atomic("IN_TXN", "BOOL"),
    atomic("UNLOGGED_DIRTY_PAGES", "INT"),
    atomic("LAST_RECOVERY", "STRING"),      # redo summary of the last open
    # log-shipping fields (see repro.replication / docs/REPLICATION.md)
    atomic("ROLE", "STRING"),               # standalone | primary | replica
    atomic("SHIPPED_SEQ", "INT"),           # newest commit batch shipped/seen
    atomic("APPLIED_SEQ", "INT"),           # oldest replica ack / local apply
    atomic("REPLICA_LAG", "INT"),           # batches shipped but unapplied
    atomic("REPLICAS", "INT"),              # attached replica links
)

REPLICAS_SCHEMA = table(
    "SYS_REPLICAS",
    atomic("ROLE", "STRING"),       # downstream (primary's view) | upstream
    atomic("PEER", "STRING"),       # replica address / primary host:port
    atomic("STATE", "STRING"),      # streaming|dead / tailing|disconnected|promoted
    atomic("CONNECTED_AT", "FLOAT"),
    atomic("SHIPPED_SEQ", "INT"),
    atomic("APPLIED_SEQ", "INT"),
    atomic("LAG", "INT"),
    atomic("BATCHES", "INT"),
    atomic("PAGES", "INT"),
    atomic("BYTES", "INT"),
)

TABLES_SCHEMA = table(
    "SYS_TABLES",
    atomic("NAME", "STRING"),
    atomic("KIND", "STRING"),       # flat | nested
    atomic("ORDERED", "BOOL"),
    atomic("VERSIONED", "BOOL"),
    atomic("VERSIONING", "STRING"),
    atomic("TUPLES", "INT"),        # current top-level cardinality
    atomic("DEPTH", "INT"),         # nesting depth (flat = 1)
    atomic("ATTRIBUTES", "INT"),    # top-level attribute count
    atomic("INDEXES", "INT"),
    atomic("PAGES", "INT"),         # pages of the table's segment
    atomic("BYTES_USED", "INT"),
    atomic("FILL_FACTOR", "FLOAT"), # BYTES_USED / page capacity
    # NF² tables with objects only (NULL otherwise); the subtuple counts
    # are NULL under subtuple versioning too
    atomic("MD_PAGES", "INT"),
    atomic("DATA_PAGES", "INT"),
    atomic("MD_SUBTUPLES", "INT"),
    atomic("DATA_SUBTUPLES", "INT"),
)

INDEXES_SCHEMA = table(
    "SYS_INDEXES",
    atomic("NAME", "STRING"),
    atomic("TABLE_NAME", "STRING"),
    atomic("KIND", "STRING"),       # flat | nf2 | text
    atomic("MODE", "STRING"),       # data-tid | root-tid | hierarchical | text
    atomic("PATH", "STRING"),       # dotted attribute path
    atomic("ENTRY_COUNT", "INT"),
    atomic("DISTINCT_KEYS", "INT"),
    atomic("MAX_POSTING_LIST", "INT"),
    atomic("AVG_POSTING_LIST", "FLOAT"),
)

_QUERY_COUNTERS = table(
    "COUNTERS", atomic("NAME", "STRING"), atomic("DELTA", "FLOAT")
)

_QUERY_TABLES = table("TABLES", atomic("NAME", "STRING"))

QUERIES_SCHEMA = table(
    "SYS_QUERIES",
    atomic("TEXT", "STRING"),
    atomic("KIND", "STRING"),       # SELECT | INSERT | ... | OTHER
    atomic("FINGERPRINT", "STRING"),
    atomic("STARTED_AT", "FLOAT"),  # epoch seconds
    atomic("LATENCY_MS", "FLOAT"),
    atomic("TUPLES", "INT"),        # result rows / affected count
    nested("TABLES", _QUERY_TABLES),
    nested("COUNTERS", _QUERY_COUNTERS),
    nested("WAITS", _WAITS),        # wait-event time during this statement
    atomic("WAIT_MS", "FLOAT"),     # total blocked time (sum of WAITS)
    atomic("SESSION", "STRING"),
    atomic("THREAD", "STRING"),
    atomic("ERROR", "STRING"),
    atomic("TRACE_ID", "STRING"),   # resolves into SYS.TRACES / SYS.SPANS
)

ASH_SCHEMA = table(
    "SYS_ASH",
    atomic("SEQ", "INT"),           # monotonically increasing sample number
    atomic("SAMPLED_AT", "FLOAT"),  # epoch seconds
    atomic("SESSION", "STRING"),
    atomic("THREAD", "STRING"),
    atomic("STATE", "STRING"),      # running | waiting | idle
    atomic("STATEMENT", "STRING"),
    atomic("FINGERPRINT", "STRING"),
    atomic("WAIT_EVENT", "STRING"), # the wait in progress at sample time
    atomic("WAIT_MS", "FLOAT"),     # how long it had been waiting
    nested("WAITS", _WAITS),        # statement's accumulated waits so far
)

TRACES_SCHEMA = table(
    "SYS_TRACES",
    atomic("TRACE_ID", "STRING"),
    atomic("NAME", "STRING"),       # root span name (usually "statement")
    atomic("KIND", "STRING"),       # root span's kind attribute, if any
    atomic("STATEMENT", "STRING"),  # root span's text attribute, if any
    atomic("SESSION", "STRING"),
    atomic("THREAD", "STRING"),
    atomic("STARTED_AT", "FLOAT"),  # epoch seconds
    atomic("DURATION_MS", "FLOAT"),
    atomic("SPAN_COUNT", "INT"),
    atomic("ERROR", "STRING"),
    atomic("PINNED", "BOOL"),       # client-armed: never evicted
)

_SPAN_ATTRS = table(
    "ATTRS", atomic("NAME", "STRING"), atomic("VALUE", "STRING")
)

SPANS_SCHEMA = table(
    "SYS_SPANS",
    atomic("TRACE_ID", "STRING"),
    atomic("NAME", "STRING"),
    atomic("PATH", "STRING"),       # slash-joined ancestor names
    atomic("DEPTH", "INT"),         # root = 0
    atomic("START_MS", "FLOAT"),    # offset from the trace's root span
    atomic("DURATION_MS", "FLOAT"),
    atomic("WAIT", "BOOL"),         # True for retroactive wait-event spans
    nested("ATTRS", _SPAN_ATTRS),
)

TRANSACTIONS_SCHEMA = table(
    "SYS_TRANSACTIONS",
    atomic("SID", "INT"),           # snapshot id (unique per manager)
    atomic("SESSION", "STRING"),
    atomic("ISOLATION", "STRING"),  # statement | snapshot
    atomic("PINNED", "BOOL"),       # True for snapshot-isolation txns
    atomic("AXIS", "STRING"),       # lsn | time
    atomic("POINT", "FLOAT"),       # commit sequence / canonical timestamp
    atomic("TXN", "INT"),           # write txn whose pending versions it sees
    atomic("COMMITTED_LSN", "FLOAT"),
    atomic("WATERMARK", "FLOAT"),   # oldest active read point (GC horizon)
    atomic("GC_BACKLOG", "INT"),    # dead versions awaiting reclamation
    atomic("LAST_WAL_LSN", "INT"),  # byte LSN of the latest COMMIT record
)

_TS_SAMPLES = list_of(
    "SAMPLES",
    atomic("TS", "FLOAT"),          # epoch seconds at sample time
    atomic("VALUE", "FLOAT"),       # cumulative total / gauge level / count
    atomic("DELTA", "FLOAT"),       # movement since the tier's previous sample
    atomic("RATE", "FLOAT"),        # delta per second
    atomic("AVG", "FLOAT"),         # histogram-only: mean value in the interval
)

METRICS_HISTORY_SCHEMA = table(
    "SYS_METRICS_HISTORY",
    atomic("NAME", "STRING"),
    atomic("KIND", "STRING"),       # counter | gauge | histogram
    nested("LABELS", _LABELS),
    atomic("TIER", "STRING"),       # resolution label, e.g. 1s / 10s / 60s
    atomic("RESOLUTION_S", "FLOAT"),
    atomic("POINTS", "INT"),        # samples currently retained in the ring
    atomic("LAST_TS", "FLOAT"),
    atomic("LAST_VALUE", "FLOAT"),
    atomic("LAST_RATE", "FLOAT"),
    nested("SAMPLES", _TS_SAMPLES),
)

_SLO_WINDOWS = list_of(
    "WINDOWS",
    atomic("WINDOW_S", "FLOAT"),    # sliding-window length
    atomic("VALUE", "FLOAT"),       # measured value over this window
    atomic("BURN_RATE", "FLOAT"),   # value / ceiling, or error-budget burn
    atomic("BREACHED", "BOOL"),
)

SLOS_SCHEMA = table(
    "SYS_SLOS",
    atomic("NAME", "STRING"),
    atomic("KIND", "STRING"),       # latency | error_rate | gauge
    atomic("METRIC", "STRING"),
    nested("LABELS", _LABELS),
    atomic("QUANTILE", "FLOAT"),    # latency SLOs: which quantile
    atomic("CEILING", "FLOAT"),     # latency/gauge SLOs: the limit
    atomic("OBJECTIVE", "FLOAT"),   # error-rate SLOs: success target
    atomic("BUDGET", "FLOAT"),      # 1 - OBJECTIVE
    atomic("FOR_MS", "FLOAT"),      # PENDING → FIRING debounce
    atomic("VALUE", "FLOAT"),       # last measured (primary window)
    atomic("BURN_RATE", "FLOAT"),
    atomic("STATE", "STRING"),      # OK | PENDING | FIRING | RESOLVED
    atomic("SINCE", "FLOAT"),       # when the current state was entered
    atomic("FIRED", "INT"),         # lifetime FIRING transitions
    atomic("DESCRIPTION", "STRING"),
    nested("WINDOWS", _SLO_WINDOWS),
)

ALERTS_SCHEMA = table(
    "SYS_ALERTS",
    atomic("SEQ", "INT"),           # monotonically increasing event number
    atomic("TS", "FLOAT"),          # epoch seconds of the transition
    atomic("SLO", "STRING"),        # resolves into SYS.SLOS
    atomic("FROM_STATE", "STRING"),
    atomic("TO_STATE", "STRING"),
    atomic("VALUE", "FLOAT"),       # measured value at transition time
    atomic("THRESHOLD", "FLOAT"),
    atomic("BURN_RATE", "FLOAT"),
    atomic("MESSAGE", "STRING"),
)

_SCHEMAS: dict[str, TableSchema] = {
    "METRICS": METRICS_SCHEMA,
    "SESSIONS": SESSIONS_SCHEMA,
    "LOCKS": LOCKS_SCHEMA,
    "WAL": WAL_SCHEMA,
    "REPLICAS": REPLICAS_SCHEMA,
    "TABLES": TABLES_SCHEMA,
    "INDEXES": INDEXES_SCHEMA,
    "QUERIES": QUERIES_SCHEMA,
    "ASH": ASH_SCHEMA,
    "TRACES": TRACES_SCHEMA,
    "SPANS": SPANS_SCHEMA,
    "TRANSACTIONS": TRANSACTIONS_SCHEMA,
    "METRICS_HISTORY": METRICS_HISTORY_SCHEMA,
    "SLOS": SLOS_SCHEMA,
    "ALERTS": ALERTS_SCHEMA,
}


def sys_view_schema(name: str) -> TableSchema:
    """The schema of a ``SYS.<view>`` table (KeyError when unknown)."""
    return _SCHEMAS[_view_of(name)]


# --------------------------------------------------------------------------
# Row producers — each computes its tuples from live engine state
# --------------------------------------------------------------------------


def iterate_sys_view(db: "Database", name: str) -> Iterator[TupleValue]:
    """Stream the current rows of a ``SYS.<view>`` table."""
    view = _view_of(name)
    producer = _PRODUCERS[view]
    schema = _SCHEMAS[view]
    for row in producer(db):
        yield TupleValue.from_plain(schema, row)


def _float(value) -> float | None:
    return None if value is None else float(value)


def _metric_rows(db: "Database") -> Iterator[dict]:
    from .metrics import METRICS

    def labels(key) -> list[dict]:
        return [{"NAME": k, "VALUE": str(v)} for k, v in key]

    base = {
        "VALUE": None,
        "COUNT": None,
        "SUM": None,
        "MIN": None,
        "MAX": None,
        "AVG": None,
        "BUCKETS": [],
    }
    for counter in METRICS.counters():
        for key, value in counter.series():
            yield {
                **base,
                "NAME": counter.name,
                "KIND": "counter",
                "LABELS": labels(key),
                "VALUE": _float(value),
            }
    for gauge in METRICS.gauges():
        for key, value in gauge.series():
            yield {
                **base,
                "NAME": gauge.name,
                "KIND": "gauge",
                "LABELS": labels(key),
                "VALUE": _float(value),
            }
    for histogram in METRICS.histograms():
        bounds = list(histogram.buckets) + [float("inf")]
        for key, snap in histogram.series():
            cumulative = 0
            buckets = []
            for bound, count in zip(bounds, snap["bucket_counts"]):
                cumulative += count
                buckets.append(
                    {
                        "BOUND": float(bound),
                        "COUNT": count,
                        "CUMULATIVE": cumulative,
                    }
                )
            count = snap["count"]
            yield {
                **base,
                "NAME": histogram.name,
                "KIND": "histogram",
                "LABELS": labels(key),
                "COUNT": count,
                "SUM": _float(snap["sum"]),
                "MIN": _float(snap["min"]),
                "MAX": _float(snap["max"]),
                "AVG": _float(snap["sum"] / count) if count else None,
                "BUCKETS": buckets,
            }


def _wait_subrows(waits: dict) -> list[dict]:
    """``{event: (count, ms)}`` → WAITS subtable rows, slowest first."""
    return [
        {"EVENT": event, "COUNT": count, "TIME_MS": _float(ms)}
        for event, (count, ms) in sorted(
            waits.items(), key=lambda item: -item[1][1]
        )
    ]


def _session_rows(db: "Database") -> Iterator[dict]:
    for session in db.active_sessions():
        summary = getattr(session, "wait_summary", dict)()
        yield {
            "NAME": session.name,
            "THREAD": getattr(session, "thread_name", None),
            "IN_TXN": session.in_transaction,
            "STATEMENTS": getattr(session, "statements", 0),
            "LOCK_TIMEOUT": _float(session.lock_timeout),
            "LAST_LOCK_REQUESTS": session.last_lock_requests,
            "LAST_LOCK_WAITS": session.last_lock_waits,
            "WAITS": _wait_subrows(summary),
        }


def _lock_rows(db: "Database") -> Iterator[dict]:
    for info in db.locks.snapshot():
        yield {
            "TXN": info.txn,
            "TXN_NAME": info.txn_name,
            "LEVEL": str(info.resource[0]),
            "RESOURCE": ".".join(str(part) for part in info.resource[1:]),
            "MODE": info.mode.value,
            "GRANTED": info.granted,
        }


def _wal_rows(db: "Database") -> Iterator[dict]:
    # a replica has no WAL of its own (shipped images *are* its log) but
    # still reports one row carrying the replication role + lag fields
    if db.wal is None and db.replication is None:
        return
    row: dict = {
        "PATH": None,
        "SIZE_BYTES": None,
        "BYTES_SINCE_CHECKPOINT": None,
        "AUTO_CHECKPOINT_BYTES": None,
        "RECORDS_APPENDED": None,
        "BYTES_APPENDED": None,
        "FSYNCS": None,
        "COMMITS": None,
        "ABORTS": None,
        "CHECKPOINTS": None,
        "SHIP_ERRORS": None,
        "IN_TXN": None,
        "UNLOGGED_DIRTY_PAGES": None,
        "LAST_RECOVERY": None,
        "ROLE": "standalone",
        "SHIPPED_SEQ": None,
        "APPLIED_SEQ": None,
        "REPLICA_LAG": None,
        "REPLICAS": 0,
    }
    if db.wal is not None:
        stats = db.wal.stats()
        row.update(
            PATH=str(stats["path"]),
            SIZE_BYTES=stats["size_bytes"],
            BYTES_SINCE_CHECKPOINT=stats["bytes_since_checkpoint"],
            AUTO_CHECKPOINT_BYTES=stats["auto_checkpoint_bytes"],
            RECORDS_APPENDED=stats["records_appended"],
            BYTES_APPENDED=stats["bytes_appended"],
            FSYNCS=stats["fsyncs"],
            COMMITS=stats["commits"],
            ABORTS=stats["aborts"],
            CHECKPOINTS=stats["checkpoints"],
            SHIP_ERRORS=stats["ship_errors"],
            IN_TXN=bool(stats["in_txn"]),
            UNLOGGED_DIRTY_PAGES=stats["unlogged_dirty_pages"],
        )
    if db.last_recovery is not None:
        row["LAST_RECOVERY"] = db.last_recovery.summary()
    if db.replication is not None:
        row.update(db.replication.wal_row_fields())
    yield row


def _replica_rows(db: "Database") -> Iterator[dict]:
    repl = db.replication
    if repl is None:
        return
    for row in repl.replica_rows():
        yield {**row, "CONNECTED_AT": _float(row.get("CONNECTED_AT"))}


def _table_rows(db: "Database") -> Iterator[dict]:
    for entry in sorted(db.catalog.tables(), key=lambda e: e.name):
        used, fill = entry.segment.usage()
        yield {
            "NAME": entry.name,
            "KIND": "flat" if entry.schema.is_flat else "nested",
            "ORDERED": entry.schema.ordered,
            "VERSIONED": entry.versioned,
            "VERSIONING": entry.versioning,
            "TUPLES": len(entry.tids),
            "DEPTH": entry.schema.depth(),
            "ATTRIBUTES": len(entry.schema.attributes),
            "INDEXES": len(entry.indexes),
            "PAGES": len(entry.segment.pages),
            "BYTES_USED": used,
            "FILL_FACTOR": fill,
            **entry.store.object_split(),
        }


def _index_rows(db: "Database") -> Iterator[dict]:
    from repro.index.text import TextIndex

    for entry in sorted(db.catalog.tables(), key=lambda e: e.name):
        for index_name in sorted(entry.indexes):
            index = entry.indexes[index_name]
            definition = index.definition
            if isinstance(index, TextIndex):
                kind = mode = "text"
            else:
                kind = "flat" if entry.schema.is_flat else "nf2"
                mode = definition.mode.value
            stats = getattr(index, "stats", None)
            yield {
                "NAME": definition.name,
                "TABLE_NAME": definition.table,
                "KIND": kind,
                "MODE": mode,
                "PATH": ".".join(definition.attribute_path),
                "ENTRY_COUNT": getattr(stats, "entry_count", None),
                "DISTINCT_KEYS": getattr(stats, "distinct_keys", None),
                "MAX_POSTING_LIST": getattr(stats, "max_posting_list", None),
                "AVG_POSTING_LIST": (
                    _float(stats.avg_posting_list) if stats is not None else None
                ),
            }


def _query_rows(db: "Database") -> Iterator[dict]:
    for record in db.query_log.tail():
        yield {
            "TEXT": record.text,
            "KIND": record.kind,
            "FINGERPRINT": record.fingerprint,
            "STARTED_AT": record.started_at,
            "LATENCY_MS": record.latency_ms,
            "TUPLES": record.rows,
            "TABLES": [{"NAME": t} for t in record.tables],
            "COUNTERS": [
                {"NAME": name, "DELTA": _float(delta)}
                for name, delta in sorted(record.counters.items())
            ],
            "WAITS": _wait_subrows(record.waits),
            "WAIT_MS": _float(record.wait_ms),
            "SESSION": record.session,
            "THREAD": record.thread_name,
            "ERROR": record.error,
            "TRACE_ID": record.trace_id,
        }


def _ash_rows(db: "Database") -> Iterator[dict]:
    for sample in db.ash.tail():
        yield {
            "SEQ": sample.seq,
            "SAMPLED_AT": sample.sampled_at,
            "SESSION": sample.session,
            "THREAD": sample.thread_name,
            "STATE": sample.state,
            "STATEMENT": sample.statement,
            "FINGERPRINT": sample.fingerprint,
            "WAIT_EVENT": sample.wait_event,
            "WAIT_MS": _float(sample.wait_ms),
            "WAITS": _wait_subrows(sample.waits),
        }


def _trace_rows(db: "Database") -> Iterator[dict]:
    from .trace import TRACER

    for trace in list(TRACER.traces):
        yield {
            "TRACE_ID": trace.trace_id,
            "NAME": trace.name,
            "KIND": trace.root.attrs.get("kind"),
            "STATEMENT": trace.root.attrs.get("text"),
            "SESSION": trace.session,
            "THREAD": trace.thread_name,
            "STARTED_AT": trace.started_at,
            "DURATION_MS": _float(trace.duration_ms),
            "SPAN_COUNT": sum(1 for _ in trace.root.walk()),
            "ERROR": trace.error,
            "PINNED": trace.pinned,
        }


def _span_rows(db: "Database") -> Iterator[dict]:
    from .trace import TRACER

    for trace in list(TRACER.traces):
        origin = trace.root.start
        for span, depth, path in trace.root.walk():
            yield {
                "TRACE_ID": trace.trace_id,
                "NAME": span.name,
                "PATH": path,
                "DEPTH": depth,
                "START_MS": round((span.start - origin) * 1000.0, 4),
                "DURATION_MS": _float(span.duration_ms),
                "WAIT": bool(span.attrs.get("wait", False)),
                "ATTRS": [
                    {"NAME": str(k), "VALUE": str(v)}
                    for k, v in sorted(span.attrs.items())
                ],
            }


def _transaction_rows(db: "Database") -> Iterator[dict]:
    manager = db.mvcc
    if manager is None:
        return
    committed = manager.committed_lsn
    watermark = manager.watermark()
    backlog = manager.gc_backlog()
    for snap in sorted(manager.active_snapshots(), key=lambda s: s.sid):
        yield {
            "SID": snap.sid,
            "SESSION": snap.session,
            "ISOLATION": snap.isolation,
            "PINNED": snap.pinned,
            "AXIS": snap.axis,
            "POINT": _float(snap.point),
            "TXN": snap.txn,
            "COMMITTED_LSN": _float(committed),
            "WATERMARK": _float(watermark),
            "GC_BACKLOG": backlog,
            "LAST_WAL_LSN": manager.last_wal_lsn,
        }


def _metrics_history_rows(db: "Database") -> Iterator[dict]:
    yield from db.ts.series_rows()


def _slo_rows(db: "Database") -> Iterator[dict]:
    yield from db.slo.slo_rows()


def _alert_rows(db: "Database") -> Iterator[dict]:
    yield from db.slo.alert_rows()


_PRODUCERS = {
    "METRICS": _metric_rows,
    "SESSIONS": _session_rows,
    "LOCKS": _lock_rows,
    "WAL": _wal_rows,
    "REPLICAS": _replica_rows,
    "TABLES": _table_rows,
    "INDEXES": _index_rows,
    "QUERIES": _query_rows,
    "ASH": _ash_rows,
    "TRACES": _trace_rows,
    "SPANS": _span_rows,
    "TRANSACTIONS": _transaction_rows,
    "METRICS_HISTORY": _metrics_history_rows,
    "SLOS": _slo_rows,
    "ALERTS": _alert_rows,
}
