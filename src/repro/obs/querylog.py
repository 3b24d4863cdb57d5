"""Statement history: a bounded ring of finished queries plus a
structured slow-query log.

``Database.execute`` records every finished statement here — text, plan
fingerprint, row count, latency, per-statement counter deltas, and the
session/thread it ran on.  The ring backs the ``SYS.QUERIES`` virtual
table and the shell's ``.queries`` command; statements slower than the
configured threshold are additionally appended to a JSON-lines sink so
an operator can tail the file while the engine runs.

Configuration (environment, read at :class:`QueryLog` construction):

* ``REPRO_SLOW_QUERY_MS`` — latency threshold in milliseconds; unset or
  empty disables the sink (the ring always records).
* ``REPRO_SLOW_QUERY_LOG`` — path of the JSON-lines file (default
  ``slow_queries.jsonl`` next to the working directory) used when the
  threshold is set.

Both can also be changed at runtime via :meth:`QueryLog.configure` (the
shell and tests do this).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from collections import deque
from typing import Any, Optional

from repro.obs.metrics import env_number

#: default capacity of the finished-statement ring (SYS.QUERIES rows)
DEFAULT_KEEP = 128

_STRING_LITERAL = re.compile(r"'(?:[^']|'')*'")
_NUMBER_LITERAL = re.compile(r"\b\d+(?:\.\d+)?\b")
_WHITESPACE = re.compile(r"\s+")


def fingerprint(text: str) -> str:
    """A stable 12-hex-digit id for a statement *shape*: literals are
    normalized to ``?`` and whitespace collapsed before hashing, so
    ``SELECT ... WHERE E.ENO = 1`` and ``... = 2`` share a fingerprint."""
    normalized = _STRING_LITERAL.sub("?", text)
    normalized = _NUMBER_LITERAL.sub("?", normalized)
    normalized = _WHITESPACE.sub(" ", normalized).strip().upper()
    return hashlib.sha1(normalized.encode("utf-8")).hexdigest()[:12]


class QueryRecord:
    """One finished statement."""

    __slots__ = (
        "text",
        "kind",
        "fingerprint",
        "started_at",
        "latency_ms",
        "rows",
        "tables",
        "counters",
        "session",
        "thread_name",
        "error",
        "waits",
        "trace_id",
    )

    def __init__(
        self,
        text: str,
        kind: str,
        latency_ms: float,
        rows: int = 0,
        tables: Optional[list[str]] = None,
        counters: Optional[dict[str, float]] = None,
        session: Optional[str] = None,
        thread_name: Optional[str] = None,
        error: Optional[str] = None,
        started_at: Optional[float] = None,
        waits: Optional[dict[str, tuple[int, float]]] = None,
        trace_id: Optional[str] = None,
    ):
        self.text = text
        self.kind = kind
        self.fingerprint = fingerprint(text)
        self.started_at = time.time() if started_at is None else started_at
        self.latency_ms = latency_ms
        self.rows = rows
        self.tables = list(tables or [])
        self.counters = dict(counters or {})
        self.session = session
        self.thread_name = (
            threading.current_thread().name if thread_name is None else thread_name
        )
        self.error = error
        #: per-statement wait breakdown {event: (count, time_ms)}
        self.waits = dict(waits or {})
        #: identity of the statement's retained trace, if it was traced
        self.trace_id = trace_id

    @property
    def wait_ms(self) -> float:
        """Total milliseconds this statement spent blocked."""
        return sum(ms for _count, ms in self.waits.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "text": self.text,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "started_at": self.started_at,
            "latency_ms": round(self.latency_ms, 4),
            "rows": self.rows,
            "tables": list(self.tables),
            "counters": dict(self.counters),
            "session": self.session,
            "thread": self.thread_name,
            "error": self.error,
            "waits": {
                event: {"count": count, "time_ms": round(ms, 4)}
                for event, (count, ms) in sorted(self.waits.items())
            },
            "trace_id": self.trace_id,
        }


class QueryLog:
    """Thread-safe bounded ring of :class:`QueryRecord` plus the
    slow-query JSON-lines sink."""

    def __init__(self, keep: int = DEFAULT_KEEP):
        self._lock = threading.Lock()
        self._ring: deque[QueryRecord] = deque(maxlen=keep)
        self.recorded = 0  #: total statements ever recorded (ring may drop)
        self.slow_logged = 0  #: statements written to the sink
        self.slow_ms: Optional[float] = env_number("REPRO_SLOW_QUERY_MS", None)
        self.slow_log_path: str = "slow_queries.jsonl"
        env_path = os.environ.get("REPRO_SLOW_QUERY_LOG", "").strip()
        if env_path:
            self.slow_log_path = env_path

    # -- configuration -------------------------------------------------------

    def configure(
        self,
        slow_ms: Optional[float] = None,
        slow_log_path: Optional[str] = None,
    ) -> None:
        """Set the slow threshold (``None`` disables the sink) and/or the
        sink path at runtime."""
        with self._lock:
            self.slow_ms = slow_ms
            if slow_log_path is not None:
                self.slow_log_path = slow_log_path

    # -- recording -----------------------------------------------------------

    def record(self, record: QueryRecord) -> None:
        with self._lock:
            self._ring.append(record)
            self.recorded += 1
            slow = (
                self.slow_ms is not None
                and record.latency_ms >= self.slow_ms
            )
            if slow:
                self.slow_logged += 1
                path = self.slow_log_path
        if slow:
            line = json.dumps(record.to_dict(), default=repr)
            try:
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
            except OSError:
                pass  # a broken sink must never fail the statement

    # -- reading -------------------------------------------------------------

    def tail(self) -> list[QueryRecord]:
        """The retained records, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        """Drop the ring and reset the lifetime counters (shell, tests)."""
        with self._lock:
            self._ring.clear()
            self.recorded = 0
            self.slow_logged = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)
