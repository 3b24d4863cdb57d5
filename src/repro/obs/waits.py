"""Wait-event attribution: where does a statement's wall-clock time go?

Every *blocking* site in the engine brackets its wait with the process-
wide :data:`WAITS` registry — the lock manager's sleep loop, latch
contention, WAL fsyncs and checkpoints, disk page reads/writes, dirty-
page evictions.  The registry attributes the elapsed time three ways:

* **per statement** — ``Database.execute`` opens a statement scope;
  ``EXPLAIN ANALYZE`` renders the breakdown as a ``waits:`` section and
  the query log stores it with every finished statement;
* **per session** — :class:`~repro.concurrency.session.Session`
  accumulates statement waits into lifetime totals (``SYS.SESSIONS``);
* **process-wide** — cumulative counters per event class, mirrored into
  :data:`~repro.obs.metrics.METRICS` (``wait.count`` / ``wait.time_ms``
  labelled by event) while profiling is on.

The *currently active* wait of every thread is readable cross-thread
(:meth:`WaitRegistry.current_wait`), which is what the ASH sampler
(:mod:`repro.obs.ash`) snapshots to say "session X is waiting on
``Lock/ObjectX`` right now".

Wait-event taxonomy (``class/detail``):

==================  =====================================================
``Lock/TableIS``    blocked acquiring a table lock in the named mode
``Lock/TableIX``    (likewise ``Lock/TableS``, ``Lock/TableX``)
``Lock/ObjectS``    blocked acquiring a complex-object (root-TID) lock
``Lock/ObjectX``
``Lock/Wal``        blocked on the global single-writer token
``Latch/<name>``    contended short-duration latch (buffer, WAL, ...)
``WAL/Fsync``       waiting for the log device to acknowledge an fsync
``WAL/Checkpoint``  waiting for the log truncation rewrite
``IO/PageRead``     reading a page from the data file
``IO/PageWrite``    writing a page to the data file
``Buffer/DirtyEvict``  flushing a dirty victim frame to make room
==================  =====================================================

When tracing is enabled, any wait longer than ``REPRO_WAIT_SPAN_MIN_MS``
(default 0.05 ms) is retroactively attached as a child span of the
thread's innermost open span, so lock waits show up inside the retained
statement trace (``SYS.SPANS``).

Cost model: entering/leaving a wait takes one small lock and a dict
write — negligible next to the wait itself — and statements that never
block never touch the registry beyond one per-statement reset.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs.metrics import METRICS, env_number
from repro.obs.trace import Span, TRACER

#: waits shorter than this are not worth a span in the statement trace
WAIT_SPAN_MIN_MS = env_number("REPRO_WAIT_SPAN_MIN_MS", 0.05)


def lock_event(resource: tuple, mode) -> str:
    """The wait-event name for blocking on *resource* in *mode* — named
    by the **requested** mode (``Lock/TableIS``, ``Lock/ObjectX``, ...).
    The global writer token is its own class (``Lock/Wal``)."""
    level = str(resource[0])
    if level == "wal":
        return "Lock/Wal"
    return f"Lock/{level.capitalize()}{mode.value}"


class _ActiveWait:
    """One in-progress wait (the token returned by :meth:`enter`)."""

    __slots__ = ("event", "started", "detail", "ident")

    def __init__(self, event: str, started: float, detail: Optional[dict], ident: int):
        self.event = event
        self.started = started
        self.detail = detail
        self.ident = ident


class WaitRegistry:
    """Process-wide wait accounting; thread-safe, always on.

    The registry has no enabled/disabled switch: blocking sites are rare
    and slow by definition, so the bookkeeping is pure noise next to the
    wait itself — and keeping it always on means ``EXPLAIN ANALYZE`` and
    the query log attribute waits without asking anyone to opt in.
    """

    def __init__(self) -> None:
        self._latch = threading.Lock()
        #: thread ident -> the wait that thread is currently inside
        self._active: dict[int, _ActiveWait] = {}
        #: thread ident -> {event: [count, time_ms]} since begin_statement
        self._stmt: dict[int, dict[str, list]] = {}
        #: process-lifetime {event: [count, time_ms]}
        self._totals: dict[str, list] = {}

    # -- wait lifecycle ----------------------------------------------------

    def enter(self, event: str, **detail: Any) -> _ActiveWait:
        """Mark the calling thread as waiting on *event*; returns the
        token :meth:`exit` needs.  Nest-safe: an inner wait simply
        replaces the outer one as the thread's *current* wait."""
        ident = threading.get_ident()
        token = _ActiveWait(event, time.perf_counter(), detail or None, ident)
        with self._latch:
            self._active[ident] = token
        return token

    def exit(self, token: _ActiveWait) -> float:
        """End a wait: accumulate elapsed time, clear the active slot,
        and (tracing on, wait long enough) attach a retroactive span.
        Returns the elapsed milliseconds."""
        ended = time.perf_counter()
        elapsed_ms = (ended - token.started) * 1000.0
        event = token.event
        ident = token.ident
        with self._latch:
            if self._active.get(ident) is token:
                del self._active[ident]
            stmt = self._stmt.get(ident)
            if stmt is None:
                stmt = self._stmt[ident] = {}
            cell = stmt.get(event)
            if cell is None:
                stmt[event] = [1, elapsed_ms]
            else:
                cell[0] += 1
                cell[1] += elapsed_ms
            total = self._totals.get(event)
            if total is None:
                self._totals[event] = [1, elapsed_ms]
            else:
                total[0] += 1
                total[1] += elapsed_ms
        if METRICS.enabled:
            METRICS.inc("wait.count", event=event)
            METRICS.inc("wait.time_ms", elapsed_ms, event=event)
        if TRACER.enabled and elapsed_ms >= WAIT_SPAN_MIN_MS:
            parent = TRACER.current_span
            if parent is not None:
                span = Span(event, start=token.started)
                span.end = ended
                span.attrs["wait"] = True
                if token.detail:
                    span.attrs.update(
                        {k: _plain(v) for k, v in token.detail.items()}
                    )
                parent.children.append(span)
        return elapsed_ms

    @contextmanager
    def wait(self, event: str, **detail: Any) -> Iterator[None]:
        """``with WAITS.wait("WAL/Fsync"): ...`` around a blocking call."""
        token = self.enter(event, **detail)
        try:
            yield
        finally:
            self.exit(token)

    # -- statement scope ---------------------------------------------------

    def begin_statement(self) -> None:
        """Reset the calling thread's per-statement accumulator."""
        ident = threading.get_ident()
        with self._latch:
            stmt = self._stmt.get(ident)
            if stmt:
                stmt.clear()

    def statement_waits(self) -> dict[str, tuple[int, float]]:
        """The calling thread's waits since :meth:`begin_statement`,
        ``{event: (count, time_ms)}`` — non-destructive."""
        return self.statement_waits_for(threading.get_ident())

    def statement_waits_for(self, ident: Optional[int]) -> dict[str, tuple[int, float]]:
        """Cross-thread read of a thread's per-statement accumulator
        (the ASH sampler uses this for the nested wait subtable)."""
        if ident is None:
            return {}
        with self._latch:
            stmt = self._stmt.get(ident)
            if not stmt:
                return {}
            return {event: (cell[0], cell[1]) for event, cell in stmt.items()}

    def take_statement(self) -> dict[str, tuple[int, float]]:
        """Pop and return the calling thread's per-statement waits (the
        finish-line read: query log + session accumulation)."""
        ident = threading.get_ident()
        with self._latch:
            stmt = self._stmt.pop(ident, None)
            if not stmt:
                return {}
            return {event: (cell[0], cell[1]) for event, cell in stmt.items()}

    # -- introspection -----------------------------------------------------

    def current_wait(self, ident: Optional[int]) -> Optional[tuple[str, float, Optional[dict]]]:
        """The wait thread *ident* is inside right now, as ``(event,
        elapsed_ms_so_far, detail)`` — or None when it is not blocked."""
        if ident is None:
            return None
        with self._latch:
            token = self._active.get(ident)
        if token is None:
            return None
        elapsed_ms = (time.perf_counter() - token.started) * 1000.0
        return (token.event, elapsed_ms, token.detail)

    def active(self) -> list[tuple[int, str, float]]:
        """Every thread currently inside a wait: ``(ident, event,
        elapsed_ms)`` rows."""
        now = time.perf_counter()
        with self._latch:
            return [
                (t.ident, t.event, (now - t.started) * 1000.0)
                for t in self._active.values()
            ]

    def totals(self) -> dict[str, tuple[int, float]]:
        """Process-lifetime ``{event: (count, time_ms)}``."""
        with self._latch:
            return {
                event: (cell[0], cell[1])
                for event, cell in self._totals.items()
            }

    def clear(self) -> None:
        """Reset accumulated totals and statement scopes (tests)."""
        with self._latch:
            self._stmt.clear()
            self._totals.clear()


def _plain(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


#: the process-wide registry every blocking site reports into
WAITS = WaitRegistry()


@contextmanager
def wait_event(event: str, **detail: Any) -> Iterator[None]:
    """Module-level convenience: ``with wait_event("Lock/ObjectX", obj=tid)``."""
    token = WAITS.enter(event, **detail)
    try:
        yield
    finally:
        WAITS.exit(token)
