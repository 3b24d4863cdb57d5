"""Harness-side tracing: spans around the layers' public callables.

The program is measured from outside.  :data:`TARGETS` names a fixed table
of public callables, one row per layer boundary; :meth:`Tracer.install`
replaces each *where it is looked up at call time* (a class attribute, or
the module global another module imported it into) with a wrapper that
records a span, and :meth:`Tracer.uninstall` puts the originals back.

A span has a name, a bucket (``layer`` or ``layer.part``), start, end,
parent and the id of the operation it belongs to.  Its *self time* is its
busy time minus the busy time of its children, so the self times of one
operation's spans add up to the operation's latency.  A callable that
returns an iterator is charged for the call and for every ``next()`` —
the engine streams candidates, so timing only the call would see nothing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

_now = time.perf_counter

#: (where to patch, attribute, bucket, kind).  ``module:Class`` patches a
#: method; a bare module patches the global that module calls through.
#: kind: "call" plain callable; "iter" returns an iterator (or None);
#: "pair" returns ``(iterator or None, report)``; "request" is the
#: server's per-statement entry (opens the operation on a worker thread).
TARGETS = (
    ("repro.server", "process_statement", "server", "request"),
    ("repro.concurrency.session:Session", "execute", "session", "call"),
    ("repro.database:Database", "execute", "database", "call"),
    ("repro.database", "parse_statement", "parser", "call"),
    ("repro.query.binder:Binder", "bind_query", "binder", "call"),
    ("repro.query.compile", "compile_query", "compile", "call"),
    ("repro.query.executor:Executor", "run", "executor", "call"),
    ("repro.query.dml:PartialDML", "execute_insert", "executor", "call"),
    ("repro.query.dml:PartialDML", "execute_update", "executor", "call"),
    ("repro.query.dml:PartialDML", "execute_delete", "executor", "call"),
    # access paths: the iterators between the executor and storage/indexes
    ("repro.database:Database", "iterate_table_for_query", "access", "iter"),
    ("repro.database:Database", "iterate_table", "access", "iter"),
    ("repro.database:Database", "lookup_rows", "access", "iter"),
    ("repro.database:Database", "scan_chunks", "access", "iter"),
    ("repro.database", "extract_condition_groups", "planner", "call"),
    ("repro.database", "candidate_roots", "planner", "pair"),
    ("repro.index.manager:NF2Index", "search", "index.search", "call"),
    ("repro.index.manager:NF2Index", "range", "index.search", "iter"),
    ("repro.index.manager:FlatIndex", "search", "index.search", "call"),
    ("repro.index.manager:FlatIndex", "range", "index.search", "iter"),
    ("repro.index.text:TextIndex", "search", "index.text_search", "call"),
    ("repro.index.manager:NF2Index", "index_object", "index.maintain", "call"),
    ("repro.index.manager:NF2Index", "deindex_object", "index.maintain", "call"),
    ("repro.index.manager:FlatIndex", "index_row", "index.maintain", "call"),
    ("repro.index.manager:FlatIndex", "deindex_row", "index.maintain", "call"),
    ("repro.index.text:TextIndex", "index_object", "index.maintain", "call"),
    ("repro.index.text:TextIndex", "deindex_object", "index.maintain", "call"),
    ("repro.storage.complex_object:ComplexObjectManager", "load", "storage.load", "call"),
    ("repro.storage.complex_object:ComplexObjectManager", "load_lazy", "storage.load", "call"),
    ("repro.storage.complex_object:ComplexObjectManager", "open", "storage.load", "call"),
    # lazy tuples decode on first touch, from inside the executor
    ("repro.storage.complex_object:OpenObject", "read_atoms", "storage.load", "call"),
    ("repro.storage.complex_object:OpenObject", "materialize_element", "storage.load", "call"),
    ("repro.storage.heap:HeapFile", "fetch", "storage.load", "call"),
    ("repro.storage.heap:HeapFile", "fetch_columns", "storage.load", "call"),
    ("repro.storage.complex_object:ComplexObjectManager", "store", "storage.write", "call"),
    ("repro.storage.complex_object:ComplexObjectManager", "delete", "storage.write", "call"),
    ("repro.storage.complex_object:OpenObject", "update_atoms", "storage.write", "call"),
    ("repro.storage.complex_object:OpenObject", "insert_element", "storage.write", "call"),
    ("repro.storage.complex_object:OpenObject", "delete_element", "storage.write", "call"),
    ("repro.storage.heap:HeapFile", "insert", "storage.write", "call"),
    ("repro.storage.heap:HeapFile", "update", "storage.write", "call"),
    ("repro.storage.heap:HeapFile", "delete", "storage.write", "call"),
    ("repro.storage.pagedfile:DiskPagedFile", "read_page", "storage.page_read", "call"),
    ("repro.storage.pagedfile:DiskPagedFile", "write_page", "storage.page_write", "call"),
    ("repro.storage.pagedfile:DiskPagedFile", "sync", "storage.page_write", "call"),
    ("repro.wal.manager:WalManager", "log_commit", "wal.commit", "call"),
    ("repro.wal.manager", "encode_catalog", "wal.catalog_encode", "call"),
    ("repro.wal.manager:WalIO", "fsync", "wal.fsync", "call"),
    ("repro.wal.manager:WalIO", "reset_with", "wal.checkpoint", "call"),
    ("repro.database:Database", "checkpoint", "wal.checkpoint", "call"),
    ("repro.wal.recovery", "recover", "wal.recover", "call"),
)


def holder(where: str):
    """The module or class a ``TARGETS`` row patches."""
    module_name, _, class_name = where.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Span(NamedTuple):
    id: int
    parent: int  # 0: a root
    op: object  # the client operation the span belongs to
    name: str
    bucket: str
    start: float
    end: float
    busy: float  # seconds of work between start and end
    self_time: float  # busy minus the busy time of its children


class _Frame:
    __slots__ = ("id", "parent", "op", "name", "bucket", "start", "busy", "child")

    def __init__(self, span_id, parent, op, name, bucket, start):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.bucket = bucket
        self.start = start
        self.busy = 0.0
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []
        self._requests: dict[str, itertools.count] = {}

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.op = None
            return self._local.stack

    def _enter(self, stack, name, bucket) -> _Frame:
        parent = stack[-1].id if stack else 0
        frame = _Frame(next(self._ids), parent, self._local.op, name, bucket, _now())
        stack.append(frame)
        return frame

    def _leave(self, stack, frame, resumed_at) -> float:
        """Pop *frame* after one stretch of work; returns now."""
        end = _now()
        stack.pop()
        elapsed = end - resumed_at
        frame.busy += elapsed
        if stack:
            stack[-1].child += elapsed
        return end

    def _finish(self, frame, end) -> None:
        self.spans.append(
            Span(
                frame.id, frame.parent, frame.op, frame.name, frame.bucket,
                frame.start, end, frame.busy, frame.busy - frame.child,
            )
        )

    @contextmanager
    def operation(self, op_id, bucket: str):
        """The root span of one client operation (the client's stopwatch)."""
        stack = self._stack()
        self._local.op = op_id
        frame = self._enter(stack, "client.op", bucket)
        try:
            yield
        finally:
            self._finish(frame, self._leave(stack, frame, frame.start))
            self._local.op = None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, original, name: str, bucket: str, kind: str):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].bucket == bucket and kind == "call":
                # recursion, or a helper of the same bucket called from a
                # span that already covers it: one span is enough
                return original(*args, **kwargs)
            opened_op = kind == "request" and tracer._local.op is None
            if opened_op:
                session = args[1].name
                counter = tracer._requests.setdefault(session, itertools.count())
                tracer._local.op = f"{session}#{next(counter)}"
            frame = tracer._enter(stack, name, bucket)
            try:
                result = original(*args, **kwargs)
            finally:
                end = tracer._leave(stack, frame, frame.start)
                tracer._finish(frame, end)
                if opened_op:
                    tracer._local.op = None
            if kind == "iter" and result is not None:
                return tracer._iterate(result, name, bucket)
            if kind == "pair" and result[0] is not None:
                return (tracer._iterate(result[0], name, bucket),) + result[1:]
            return result

        return wrapper

    def _iterate(self, inner, name: str, bucket: str):
        """Re-yield *inner*, charging every ``next()`` to one span."""
        stack = self._stack()
        frame = None
        inner = iter(inner)
        end = 0.0
        try:
            while True:
                if frame is None:
                    frame = self._enter(stack, name + ".stream", bucket)
                    resumed = frame.start
                else:
                    stack.append(frame)
                    resumed = _now()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = self._leave(stack, frame, resumed)
                yield item
        finally:
            if frame is not None:
                self._finish(frame, end)

    def install(self) -> None:
        for where, attribute, bucket, kind in TARGETS:
            owner = holder(where)
            original = vars(owner)[attribute]
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attribute}"
            setattr(owner, attribute, self._wrap(original, name, bucket, kind))
            self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per bucket."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.bucket] = out.get(span.bucket, 0.0) + span.self_time
        return out

    def busy_seconds(self, name: str) -> list[float]:
        """Busy time of every span called *name*."""
        return [span.busy for span in self.spans if span.name == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")
