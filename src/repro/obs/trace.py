"""Query-lifecycle tracing: nested timed spans with attributes.

``Database.execute`` opens a trace per statement with spans for
parse / bind / plan / execute; storage and planner components may attach
further child spans or annotate the current one, and the wait registry
(:mod:`repro.obs.waits`) retroactively attaches ``Lock/*`` / ``WAL/*`` /
``IO/*`` spans for blocking waits.  Finished traces are exportable as
plain JSON or as the Chrome ``trace_event`` format (load
``chrome://tracing`` or https://ui.perfetto.dev and drop the file in to
see the statement timeline).

Every trace has an **identity** — a 16-hex-digit ``trace_id``, either
engine-generated or armed by the client (the server's ``TRACE <id>``
verb, W3C-traceparent friendly) — which the query log and slow-query
sink record, and which ``SYS.TRACES`` / ``SYS.SPANS`` resolve back to
the span tree.

Retention is **tail-based** rather than a blind ring: error traces,
traces slower than ``REPRO_TRACE_SLOW_MS``, and client-armed traces are
always kept; the rest are sampled (``REPRO_TRACE_SAMPLE`` keeps every
N-th) and evicted first when the buffer (``REPRO_TRACE_KEEP``) fills.

Like the metrics registry, the tracer is **disabled by default** and every
entry point guards on the plain ``TRACER.enabled`` attribute so the cost of
tracing-when-off is one attribute load and a branch.  A client-armed
trace id *forces* tracing of that one statement even while the tracer is
globally off.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Optional

from repro.obs.metrics import env_number


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return os.urandom(8).hex()


def parse_trace_id(text: str) -> str:
    """Normalize a client-supplied trace id.

    Accepts a bare token or a W3C ``traceparent`` header
    (``00-<trace-id>-<span-id>-<flags>``), whose trace-id field is
    extracted.  Raises ``ValueError`` on junk."""
    token = text.strip()
    parts = token.split("-")
    if len(parts) >= 3 and all(parts):
        token = parts[1]  # traceparent: version-traceid-spanid-flags
    if not token or len(token) > 64 or not all(
        c.isalnum() or c in "_." for c in token
    ):
        raise ValueError(f"malformed trace id {text!r}")
    return token.lower()


class Span:
    """One timed region; ``duration_ms`` is valid once the span ended."""

    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str, start: Optional[float] = None):
        self.name = name
        self.start = time.perf_counter() if start is None else start
        self.end: Optional[float] = None
        self.attrs: dict[str, Any] = {}
        self.children: list["Span"] = []

    @property
    def duration_ms(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return (end - self.start) * 1000.0

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for a descendant span by name."""
        for child in self.children:
            if child.name == name:
                return child
            hit = child.find(name)
            if hit is not None:
                return hit
        return None

    def walk(self, depth: int = 0, path: str = "") -> Iterator[tuple["Span", int, str]]:
        """Yield ``(span, depth, parent_path)`` depth-first — the
        flattening ``SYS.SPANS`` uses."""
        yield self, depth, path
        child_path = f"{path}/{self.name}" if path else self.name
        for child in self.children:
            yield from child.walk(depth + 1, child_path)

    def to_dict(self, origin: Optional[float] = None) -> dict:
        """Serialize; ``start_ms`` is the offset from *origin* (the root
        span's start), so a re-imported trace keeps its timeline."""
        if origin is None:
            origin = self.start
        return {
            "name": self.name,
            "start_ms": round((self.start - origin) * 1000.0, 4),
            "duration_ms": round(self.duration_ms, 4),
            "attrs": dict(self.attrs),
            "children": [child.to_dict(origin) for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict, origin: float = 0.0) -> "Span":
        # pre-identity exports carry no start_ms; their spans all land
        # at the origin (the old, lossy behaviour — now the fallback)
        start = origin + data.get("start_ms", 0.0) / 1000.0
        span = cls(data["name"], start=start)
        span.end = start + data["duration_ms"] / 1000.0
        span.attrs = dict(data.get("attrs", {}))
        span.children = [
            cls.from_dict(c, origin) for c in data.get("children", ())
        ]
        return span


class Trace:
    """A finished statement trace: a root span plus wall-clock anchoring.

    Each trace records *where* it ran — the OS thread (name + ident) and,
    when the engine set one, a session label — so that traces from
    concurrent TCP sessions interleaved in the shared ring stay
    attributable; and *who* it is — ``trace_id``, engine-generated unless
    the client armed one (``pinned`` marks those: never evicted).
    """

    def __init__(
        self,
        root: Span,
        started_at: Optional[float] = None,
        thread_name: Optional[str] = None,
        thread_id: Optional[int] = None,
        session: Optional[str] = None,
        trace_id: Optional[str] = None,
        pinned: bool = False,
    ):
        self.root = root
        #: wall-clock epoch seconds when the trace began (export metadata)
        self.started_at = time.time() if started_at is None else started_at
        current = threading.current_thread()
        self.thread_name = current.name if thread_name is None else thread_name
        self.thread_id = current.ident if thread_id is None else thread_id
        #: engine-assigned session label (``Tracer.set_session``), if any
        self.session = session
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        #: client-armed traces are retained unconditionally
        self.pinned = pinned

    @property
    def name(self) -> str:
        return self.root.name

    @property
    def duration_ms(self) -> float:
        return self.root.duration_ms

    @property
    def error(self) -> Optional[str]:
        """The root span's error annotation (set when the traced
        statement raised), or None."""
        return self.root.attrs.get("error")

    def find(self, name: str) -> Optional[Span]:
        if self.root.name == name:
            return self.root
        return self.root.find(name)

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "repro.obs.trace/1",
            "trace_id": self.trace_id,
            "started_at": self.started_at,
            "thread_name": self.thread_name,
            "thread_id": self.thread_id,
            "session": self.session,
            "root": self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        if data.get("format") != "repro.obs.trace/1":
            raise ValueError("not a repro.obs trace")
        return cls(
            Span.from_dict(data["root"]),
            started_at=data["started_at"],
            thread_name=data.get("thread_name"),
            thread_id=data.get("thread_id"),
            session=data.get("session"),
            trace_id=data.get("trace_id"),
        )

    def chrome_events(self, offset_us: float = 0.0) -> list[dict]:
        """Chrome ``trace_event`` complete events ("ph": "X"), one per
        span, microsecond timestamps relative to the trace start (plus
        *offset_us*, used by multi-trace exports to lay traces out on a
        common timeline).  The lane (``tid``) is the OS thread the trace
        ran on, so concurrent sessions render side by side."""
        events: list[dict] = []
        origin = self.root.start
        tid = self.thread_id if self.thread_id is not None else 1

        def visit(span: Span) -> None:
            end = span.end if span.end is not None else span.start
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6 + offset_us, 3),
                    "dur": round((end - span.start) * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "cat": "repro",
                    "args": {k: _jsonable(v) for k, v in span.attrs.items()},
                }
            )
            for child in span.children:
                visit(child)

        visit(self.root)
        return events

    def chrome_metadata_event(self) -> dict:
        """The ``thread_name`` metadata event that labels this trace's
        lane in Perfetto / chrome://tracing."""
        tid = self.thread_id if self.thread_id is not None else 1
        name = self.thread_name or f"thread-{tid}"
        return {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": name},
        }

    def to_chrome_json(self) -> str:
        return json.dumps(
            {"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}
        )


def chrome_trace_json(traces: Iterable[Trace]) -> str:
    """Many traces in one Chrome JSON file: thread-name metadata events
    label one lane per OS thread, and each trace is offset on the shared
    timeline by its wall-clock start, so concurrent sessions interleave
    the way they actually ran."""
    traces = list(traces)
    events: list[dict] = []
    seen_tids: set = set()
    for trace in traces:
        meta = trace.chrome_metadata_event()
        if meta["tid"] not in seen_tids:
            seen_tids.add(meta["tid"])
            events.append(meta)
    base = min((t.started_at for t in traces), default=0.0)
    for trace in traces:
        offset_us = (trace.started_at - base) * 1e6
        events.extend(trace.chrome_events(offset_us=offset_us))
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class Tracer:
    """Maintains per-thread active span stacks and a shared buffer of
    finished traces with tail-based retention.

    The span stack is **thread-local**: under PR 4's statement
    parallelism a single shared list interleaved spans from concurrent
    sessions into one stack and corrupted parent/child links (a span
    opened on thread A became the parent of thread B's spans).  Each
    thread now builds its own span tree; only the *finished* trace
    buffer (``traces`` / ``last_trace``) is shared, and every
    :class:`Trace` is tagged with the thread and session it came from.

    Stacks are **generation-stamped**: :meth:`disable` bumps the
    generation instead of clearing only the calling thread's stack, so
    every thread's open stack is lazily reset on its next span — no
    leaked parents orphaning post-disable spans on other threads.
    """

    def __init__(
        self,
        enabled: bool = False,
        keep: int = 32,
        slow_ms: Optional[float] = None,
        sample_every: int = 1,
    ):
        self.enabled = enabled
        self._local = threading.local()
        self._generation = 0
        #: retention knobs — ``keep`` bounds the buffer (unless the test
        #: suite swapped in a maxlen-bounded deque, which then governs),
        #: ``slow_ms`` marks always-keep slow traces, ``sample_every``
        #: keeps every N-th unremarkable trace
        self.keep = keep
        self.slow_ms = slow_ms
        self.sample_every = max(1, sample_every)
        self.traces: deque[Trace] = deque()
        self.last_trace: Optional[Trace] = None
        #: unremarkable traces dropped by sampling (not retained at all)
        self.sampled_out = 0
        self._ring_latch = threading.Lock()
        self._sample_clock = 0

    @property
    def _stack(self) -> list[Span]:
        """This thread's open-span stack (created lazily per thread,
        invalidated wholesale when the tracer's generation moves)."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None or getattr(local, "generation", -1) != self._generation:
            stack = local.stack = []
            local.generation = self._generation
        return stack

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        """Turn tracing off and invalidate **every** thread's open span
        stack (not just the caller's) via the generation stamp."""
        self.enabled = False
        self._generation += 1

    # -- session attribution ---------------------------------------------------

    def set_session(self, label: Optional[str]) -> Optional[str]:
        """Set (or clear, with ``None``) this thread's session label and
        return the previous one.  Finished traces started on this thread
        carry the label; the Session layer brackets statements with it."""
        previous = getattr(self._local, "session", None)
        self._local.session = label
        return previous

    @property
    def session(self) -> Optional[str]:
        return getattr(self._local, "session", None)

    # -- trace identity --------------------------------------------------------

    def arm_trace_id(self, text: str) -> str:
        """Arm a client-supplied trace id for this thread's **next**
        statement.  The armed statement is traced even while the tracer
        is globally disabled, and its trace is pinned (never evicted).
        Returns the normalized id; raises ``ValueError`` on junk."""
        trace_id = parse_trace_id(text)
        self._local.pending_id = trace_id
        return trace_id

    def disarm(self) -> Optional[str]:
        """Take back this thread's armed id if no statement consumed it."""
        trace_id = getattr(self._local, "pending_id", None)
        self._local.pending_id = None
        return trace_id

    @property
    def armed(self) -> bool:
        """True when this thread has an armed (unconsumed) trace id."""
        return getattr(self._local, "pending_id", None) is not None

    @property
    def thread_last_trace(self) -> Optional[Trace]:
        """The last trace finished **on this thread** — unlike
        ``last_trace``, immune to races with concurrent sessions."""
        return getattr(self._local, "last_trace", None)

    def get(self, trace_id: str) -> Optional[Trace]:
        """Resolve a retained trace by id (newest first)."""
        last = self.last_trace
        if last is not None and last.trace_id == trace_id:
            return last
        for trace in reversed(list(self.traces)):
            if trace.trace_id == trace_id:
                return trace
        return None

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Span]]:
        """Open a span.  A span opened with an empty stack starts a new
        trace; closing it finishes the trace.  Yields ``None`` (cheaply)
        when tracing is disabled — unless an armed trace id forces this
        statement through."""
        local = self._local
        if not self.enabled:
            # an armed id forces exactly one statement trace through a
            # disabled tracer; `forced` keeps its child spans alive
            if not getattr(local, "forced", False) and (
                name != "statement"
                or getattr(local, "pending_id", None) is None
            ):
                yield None
                return
        span = Span(name)
        if attrs:
            span.attrs.update(attrs)
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(span)
        trace_id: Optional[str] = None
        pinned = False
        if parent is None and name == "statement":
            pending = getattr(local, "pending_id", None)
            if pending is not None:
                trace_id = pending
                pinned = True
                local.pending_id = None
                if not self.enabled:
                    local.forced = True
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            span.end = time.perf_counter()
            # re-resolve: a concurrent disable() may have swapped stacks
            stack = self._stack
            if span in stack:
                # tolerate a stack disturbed by generator-interleaved spans
                while stack and stack[-1] is not span:
                    stack.pop()
                stack.pop()
            if parent is None:
                if getattr(local, "forced", False):
                    local.forced = False
                self._retain(
                    Trace(
                        span,
                        session=self.session,
                        trace_id=trace_id,
                        pinned=pinned,
                    )
                )

    @property
    def current_span(self) -> Optional[Span]:
        stack = self._stack
        return stack[-1] if stack else None

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op when
        disabled or outside any span)."""
        if not self.enabled or not self._stack:
            return
        self._stack[-1].attrs.update(attrs)

    # -- retention -----------------------------------------------------------

    def _important(self, trace: Trace) -> bool:
        """Tail-based keep policy: errors, slow traces, and client-armed
        traces survive eviction and sampling."""
        if trace.pinned or trace.error is not None:
            return True
        return self.slow_ms is not None and trace.duration_ms >= self.slow_ms

    def _retain(self, trace: Trace) -> None:
        self._local.last_trace = trace
        self.last_trace = trace
        if self.sample_every > 1 and not self._important(trace):
            with self._ring_latch:
                self._sample_clock += 1
                keep_this = self._sample_clock % self.sample_every == 0
            if not keep_this:
                self.sampled_out += 1
                return
        self.traces.append(trace)
        # an externally-assigned bounded deque governs its own capacity;
        # otherwise evict unremarkable traces first, oldest first
        if self.traces.maxlen is None and len(self.traces) > self.keep:
            with self._ring_latch:
                while len(self.traces) > self.keep:
                    victim = None
                    for candidate in self.traces:
                        if not self._important(candidate):
                            victim = candidate
                            break
                    try:
                        if victim is not None:
                            self.traces.remove(victim)
                        else:
                            self.traces.popleft()
                    except (ValueError, IndexError):
                        break  # lost a race with a concurrent clear()

    # -- export --------------------------------------------------------------

    def export_chrome(self, path: str, trace: Optional[Trace] = None) -> None:
        trace = trace or self.last_trace
        if trace is None:
            raise ValueError("no finished trace to export")
        with open(path, "w") as handle:
            handle.write(trace.to_chrome_json())

    def export_chrome_many(
        self, path: str, traces: Optional[Iterable[Trace]] = None
    ) -> int:
        """Write every retained trace (or *traces*) into one Chrome JSON
        file, one lane per thread; returns the trace count."""
        selected = list(self.traces) if traces is None else list(traces)
        if not selected:
            raise ValueError("no finished traces to export")
        with open(path, "w") as handle:
            handle.write(chrome_trace_json(selected))
        return len(selected)


#: the process-wide tracer used by Database.execute and friends
TRACER = Tracer(
    keep=env_number("REPRO_TRACE_KEEP", 128, int),
    slow_ms=env_number("REPRO_TRACE_SLOW_MS", 250.0),
    sample_every=env_number("REPRO_TRACE_SAMPLE", 1, int),
)
