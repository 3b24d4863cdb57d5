"""Active-session history: a background sampler in the Oracle ASH mold.

Every ``period_ms`` the sampler walks the database's registered sessions
and snapshots, per session: the statement it is inside (text +
fingerprint), its state (``running`` / ``waiting`` / ``idle``), the wait
event it is blocked on right now (from :data:`~repro.obs.waits.WAITS`),
and the per-statement wait breakdown accumulated so far.  Samples land
in a bounded ring exposed as the ``SYS.ASH`` virtual table — so "what
was everyone doing while that statement was slow?" is one NF² query,
with the wait breakdown as a nested subtable per sample row.

Sampling is *passive*: it reads cross-thread state under the wait
registry's latch and never takes engine locks, so a wedged session
cannot wedge the sampler.  The sampler thread is started on demand
(:meth:`ActiveSessionHistory.start`) — constructing a database does not
spawn threads — and :meth:`sample_once` lets tests and the shell take a
single deterministic snapshot without the thread.

Environment knobs (read at construction):

* ``REPRO_ASH_PERIOD_MS`` — sampling period (default 10 ms)
* ``REPRO_ASH_KEEP`` — ring capacity in sample rows (default 4096)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import env_number
from repro.obs.querylog import fingerprint
from repro.obs.waits import WAITS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database import Database


class AshSample:
    """One session at one sampling tick."""

    __slots__ = (
        "seq",
        "sampled_at",
        "session",
        "thread_name",
        "state",
        "statement",
        "fingerprint",
        "wait_event",
        "wait_ms",
        "waits",
    )

    def __init__(
        self,
        seq: int,
        sampled_at: float,
        session: str,
        thread_name: Optional[str],
        state: str,
        statement: Optional[str],
        wait_event: Optional[str],
        wait_ms: Optional[float],
        waits: dict[str, tuple[int, float]],
    ):
        self.seq = seq
        self.sampled_at = sampled_at
        self.session = session
        self.thread_name = thread_name
        self.state = state
        self.statement = statement
        self.fingerprint = fingerprint(statement) if statement else None
        self.wait_event = wait_event
        self.wait_ms = wait_ms
        self.waits = waits

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "sampled_at": self.sampled_at,
            "session": self.session,
            "thread": self.thread_name,
            "state": self.state,
            "statement": self.statement,
            "fingerprint": self.fingerprint,
            "wait_event": self.wait_event,
            "wait_ms": self.wait_ms,
            "waits": {
                event: {"count": count, "time_ms": ms}
                for event, (count, ms) in self.waits.items()
            },
        }


class ActiveSessionHistory:
    """The sampler plus its bounded sample ring (one per database)."""

    def __init__(
        self,
        db: "Database",
        period_ms: Optional[float] = None,
        keep: Optional[int] = None,
    ):
        self._db = db
        self.period_ms = (
            env_number("REPRO_ASH_PERIOD_MS", 10.0) if period_ms is None else period_ms
        )
        capacity = env_number("REPRO_ASH_KEEP", 4096, int) if keep is None else keep
        self.samples: deque[AshSample] = deque(maxlen=capacity)
        self.ticks = 0  #: sampling rounds taken (thread or manual)
        self._seq = 0
        self._latch = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> None:
        """Start the background sampler (idempotent)."""
        with self._latch:
            if self.running:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-ash", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop the sampler; the ring keeps its samples."""
        with self._latch:
            thread = self._thread
            self._thread = None
        if thread is not None and thread.is_alive():
            self._stop.set()
            thread.join(timeout=2.0)

    def _run(self) -> None:
        while not self._stop.wait(self.period_ms / 1000.0):
            try:
                self.sample_once()
            except Exception:  # observability must never crash the engine
                pass

    # -- sampling ----------------------------------------------------------

    def sample_once(self) -> int:
        """Take one snapshot of every registered session; returns the
        number of sample rows added."""
        now = time.time()
        added = 0
        for session in self._db.active_sessions():
            statement = getattr(session, "current_statement", None)
            ident = getattr(session, "thread_ident", None)
            wait = WAITS.current_wait(ident) if statement is not None else None
            if statement is None:
                state = "idle"
            elif wait is not None:
                state = "waiting"
            else:
                state = "running"
            waits = (
                WAITS.statement_waits_for(ident)
                if statement is not None
                else {}
            )
            with self._latch:
                self._seq += 1
                seq = self._seq
            self.samples.append(
                AshSample(
                    seq=seq,
                    sampled_at=now,
                    session=session.name,
                    thread_name=getattr(session, "thread_name", None),
                    state=state,
                    statement=statement,
                    wait_event=wait[0] if wait is not None else None,
                    wait_ms=round(wait[1], 4) if wait is not None else None,
                    waits=waits,
                )
            )
            added += 1
        self.ticks += 1
        return added

    def tail(self) -> list[AshSample]:
        """The retained samples, oldest first."""
        return list(self.samples)

    def clear(self) -> None:
        self.samples.clear()
