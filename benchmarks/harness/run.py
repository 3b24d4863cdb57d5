"""One layered benchmark for the NF2 statement pipeline.

Contract mode (what ``BENCHMARK.json`` ``command`` runs)::

    python3 benchmarks/harness/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

builds the data set from the seed, runs one workload closed-loop for S
seconds, checks every result against the oracle, and prints one JSON
object as its last line.  ``--trace 0`` measures the end-to-end metrics
with all instrumentation off; ``--trace 1`` runs a fixed number of
statements twice — plain, then with the harness-side tracer and the
engine's ``METRICS`` on — and reports the per-layer budget.

Without ``--workload`` every workload runs both ways (each in its own
process, so peak memory is per workload) and one report is printed;
``--check`` does that twice and compares the two sets against the bounds
in ``BENCHMARK.json``; ``--calibrate`` also writes the measured bounds
back.  ``--quick`` measures for one second (smoke tests).  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import dataset  # noqa: E402 - after the path set-up above
import durability  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402
from trace import Tracer  # noqa: E402 - this directory's trace.py, not the stdlib's

WORK = os.path.join(ROOT, ".bench_work")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SETUPS = 3
ROUNDS = 5

#: name -> unit; the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "ops_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "space_amp": "ratio",
    "peak_rss_mb": "MB",
}
#: per operation unless the name says share, ratio, total or max
PER_LAYER = {
    "server.self_ms": "ms",
    "server.requests": "count",
    "server.rejected_share": "ratio",
    "server.reply_bytes": "bytes",
    "session.self_ms": "ms",
    "parser.ms": "ms",
    "parser.cache_hit_share": "ratio",
    "binder.ms": "ms",
    "planner.ms": "ms",
    "planner.indexes_considered": "count",
    "planner.conjuncts_settled": "count",
    "compile.ms": "ms",
    "compile.cache_hit_share": "ratio",
    "compile.fallbacks": "count",
    "executor.self_ms": "ms",
    "executor.rows_scanned_per_result": "ratio",
    "executor.predicate_evals": "count",
    "executor.columnar_chunks": "count",
    "executor.lazy_rows_share": "ratio",
    "access.self_ms": "ms",
    "database.self_ms": "ms",
    "index.search_ms": "ms",
    "index.probes": "count",
    "index.btree_node_visits": "count",
    "index.text_search_ms": "ms",
    "index.maintain_ms": "ms",
    "storage.load_ms": "ms",
    "storage.write_ms": "ms",
    "storage.logical_reads": "count",
    "storage.physical_reads": "count",
    "storage.hit_ratio": "ratio",
    "storage.evictions": "count",
    "storage.distinct_pages": "count",
    "storage.data_subtuple_decodes": "count",
    "storage.objects_opened": "count",
    "storage.page_read_ms": "ms",
    "storage.page_write_ms": "ms",
    "wal.commit_ms": "ms",
    "wal.catalog_encode_ms": "ms",
    "wal.fsync_ms": "ms",
    "wal.fsyncs_per_commit": "ratio",
    "wal.bytes_per_commit": "bytes",
    "wal.checkpoints": "count",
    "wal.checkpoint_ms_total": "ms",
    "wal.checkpoint_stall_max_ms": "ms",
    "wal.recover_ms": "ms",
    "wal.recover_records": "count",
    "locks.requests": "count",
    "locks.wait_ms": "ms",
    "latch.contention": "count",
    "write_amp": "ratio",
    "failed_share": "ratio",
    "acked_lost": "count",
    "trace.harness_ms": "ms",
    "trace.op_ms": "ms",
    "trace.self_sum_ms": "ms",
    "trace.overhead_share": "ratio",
    "metrics.overhead_share": "ratio",
    "trace.ops": "count",
}

#: time metric -> tracer bucket: that bucket's self seconds per operation
SELF_TIME = {
    "session.self_ms": "session",
    "parser.ms": "parser",
    "binder.ms": "binder",
    "planner.ms": "planner",
    "compile.ms": "compile",
    "executor.self_ms": "executor",
    "access.self_ms": "access",
    "database.self_ms": "database",
    "index.search_ms": "index.search",
    "index.text_search_ms": "index.text_search",
    "index.maintain_ms": "index.maintain",
    "storage.load_ms": "storage.load",
    "storage.write_ms": "storage.write",
    "storage.page_read_ms": "storage.page_read",
    "storage.page_write_ms": "storage.page_write",
    "wal.commit_ms": "wal.commit",
    "wal.catalog_encode_ms": "wal.catalog_encode",
    "wal.fsync_ms": "wal.fsync",
    "trace.harness_ms": "harness",
}
#: count metric -> the engine's METRICS counters, summed, per operation
PER_OP_COUNTS = {
    "planner.indexes_considered": ("planner.indexes_considered",),
    "planner.conjuncts_settled": ("planner.conjuncts_settled",),
    "executor.predicate_evals": ("query.predicate_evals",),
    "executor.columnar_chunks": ("exec.columnar_chunks",),
    "index.probes": ("index.probes", "index.range_scans"),
    "index.btree_node_visits": ("index.btree_node_visits",),
    "storage.data_subtuple_decodes": ("storage.data_subtuple_decodes",),
    "storage.objects_opened": ("storage.objects_opened",),
}


# -- engines ------------------------------------------------------------------


class Embedded:
    """The engine in this process: clients call ``Database.execute`` and
    read every value of the result (objects decode lazily, so a result
    nobody reads has not been fetched)."""

    def __init__(self, path: str, spec):
        from repro.database import Database
        from repro.errors import ReproError

        self.db = db = Database(path, buffer_capacity=spec.buffer_pages)

        def submit(statements):
            try:
                result = db.execute(statements[0])
            except ReproError as exc:
                return [exc]
            return [result if isinstance(result, int) else result.to_plain()]

        self.submits = [submit]

    def finish(self, oracle, writes: bool) -> dict:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        errors = oracle.state_errors(self.db) if writes else 0
        self.db.close()
        return {"peak_rss_kb": peak_kb, "state_errors": errors}


class Wire:
    """Blocking ``LineClient`` sessions against ``repro.server``: a
    subprocess started by ``serve.py``, or (``in_process``, the traced
    pass) an ``AsyncDatabaseServer`` hosted here so its spans are visible."""

    def __init__(self, path: str, spec, in_process: bool = False):
        from repro.server import LineClient

        self.path = path
        self.db = self.server = self.process = None
        if in_process:
            import serve
            from repro.database import Database
            from repro.server import AsyncDatabaseServer

            self.db = Database(path, buffer_capacity=spec.buffer_pages)
            self.server = AsyncDatabaseServer(self.db, port=0, workers=serve.WORKERS)
            self.server.serve_background()
            port = self.server.address[1]
        else:
            self.process = subprocess.Popen(
                [
                    sys.executable, os.path.join(HERE, "serve.py"), path,
                    "--buffer-pages", str(spec.buffer_pages),
                ],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            ready = self.process.stdout.readline().split()
            if ready[:1] != ["ready"]:
                self.process.kill()
                self.process.wait()
                raise RuntimeError(f"server did not start: {ready!r}")
            port = int(ready[1])
        self.clients = [LineClient("127.0.0.1", port) for _ in range(spec.clients)]
        if spec.batch == 1:
            self.submits = [
                (lambda statements, send=client.send: [send(statements[0])])
                for client in self.clients
            ]
        else:
            self.submits = [client.pipeline for client in self.clients]

    def finish(self, oracle, writes: bool) -> dict:
        from repro.database import Database

        for client in self.clients:
            client.close()
        if self.process is not None:
            try:
                report, _ = self.process.communicate(timeout=60)  # closes stdin
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                raise
            if self.process.returncode != 0:
                raise RuntimeError("server exited with an error")
            out = json.loads(report.splitlines()[-1])
        else:
            self.server.shutdown()
            self.db.close()
            out = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        out["state_errors"] = 0
        if writes:
            # what the server acknowledged must be in the files it left
            db = Database(self.path)
            try:
                out["state_errors"] = oracle.state_errors(db)
            finally:
                db.close()
        return out


def open_engine(spec, path: str, in_process: bool = False):
    if spec.surface == "embedded":
        return Embedded(path, spec)
    return Wire(path, spec, in_process=in_process)


def build_subprocess(seed: int, directory: str) -> str:
    """Bulk load in a process of its own (its large buffer pool must not
    count towards this process's peak memory)."""
    subprocess.run(
        [
            sys.executable, os.path.join(HERE, "dataset.py"),
            "--seed", str(seed), "--out", directory,
        ],
        check=True,
    )
    return os.path.join(directory, dataset.DB_FILE)


# -- the closed loop ------------------------------------------------------------


def drive(submit, ops, batch, check, operation=None):
    """One client, closed loop: the next round trip starts when the
    previous reply is in and checked.  Returns the round-trip seconds.

    Replies are checked one round trip at a time, outside the stopwatch,
    and dropped.  Kept to the end of a round they are a heap of hundreds of
    thousands of objects that every full pass of the collector walks, and
    the slowest statements of a run are then the ones such a pass fell
    into: the harness's memory, not the program's."""
    latencies = []
    clock = time.perf_counter
    for start in range(0, len(ops), batch):
        group = ops[start : start + batch]
        statements = [op.sql for op in group]
        began = clock()
        if operation is None:
            got = submit(statements)
        else:
            with operation(start):
                got = submit(statements)
        latencies.append(clock() - began)
        check(group, got)
    return latencies


class Run:
    """One engine, its clients' tapes, and the running verdict."""

    def __init__(self, spec, seed, engine, oracle, tracer=None):
        self.spec = spec
        self.engine = engine
        self.oracle = oracle
        self.tracer = tracer
        self.tapes = [workloads.tape(spec, seed, c) for c in range(spec.clients)]
        self.attempted = self.failed = 0
        self.user_bytes = 0
        self.reply_bytes = 0
        self.reply_sha = [hashlib.sha256() for _ in range(spec.clients)]
        self.verdict = threading.Lock()  # the tallies and the oracle's model

    def round(self, ops_per_client: int, traced: bool = False):
        """Every client runs *ops_per_client* statements; returns each
        client's round-trip latencies."""
        spec = self.spec
        batches = [list(itertools.islice(t, ops_per_client)) for t in self.tapes]
        results = [None] * spec.clients
        done = self.attempted // spec.clients

        bucket = "client" if spec.surface == "wire" else "harness"

        def client(index):
            def operation(start):
                return self.tracer.operation(f"c{index}#{done + start}", bucket)

            results[index] = drive(
                self.engine.submits[index], batches[index], spec.batch,
                lambda ops, replies: self._verify(index, ops, replies),
                operation if traced else None,
            )

        if spec.clients == 1:
            client(0)
        else:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(spec.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if any(r is None for r in results):
            raise RuntimeError("a client thread died")
        return results

    def _verify(self, index, ops, replies) -> None:
        """Outside the timed region: every reply against the oracle."""
        wire = self.spec.surface == "wire"
        check = self.oracle.check_reply if wire else self.oracle.check
        with self.verdict:
            for op, reply in zip(ops, replies):
                self.attempted += 1
                if not check(op, reply):
                    self.failed += 1
                elif op.kind in workloads.WRITE_KINDS:
                    self.oracle.apply(op)
                    self.user_bytes += workloads.user_bytes(op)
                if wire:
                    self.reply_bytes += len(reply)
                    self.reply_sha[index].update(reply.encode("utf-8"))


def busy(latencies) -> float:
    """Seconds the clients of a round spent waiting for replies."""
    return sum(sum(one) for one in latencies)


def rate(latencies, batch: int) -> float:
    """Statements per second of a round: each client's statements over
    the time it waited for their replies (a closed loop with no think
    time; checking the replies is not the program's time)."""
    return sum(batch * len(one) / sum(one) for one in latencies)


def percentile(sorted_values, q: float) -> float:
    """Interpolated between the two closest ranks: the number of samples
    of a round differs from run to run, and the value must not jump when
    the rank does."""
    position = q * (len(sorted_values) - 1)
    below = int(position)
    above = min(below + 1, len(sorted_values) - 1)
    share = position - below
    return sorted_values[below] * (1 - share) + sorted_values[above] * share


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# -- the two passes ---------------------------------------------------------------


def measure_end_to_end(spec, seed: int, seconds: float, work: str):
    data = dataset.generate(seed)
    oracle = Oracle(data)
    setups = []
    probe_dir = os.path.join(work, "probe")
    for attempt in range(SETUPS):
        directory = os.path.join(work, f"setup{attempt}")
        began = time.perf_counter()
        path = build_subprocess(seed, directory)
        engine = open_engine(spec, path)
        setups.append(time.perf_counter() - began)
        if attempt < SETUPS - 1:
            engine.finish(oracle, writes=False)
            if spec.name == "write_commit" and attempt == 0:
                os.rename(directory, probe_dir)  # a pristine copy, for later
            else:
                shutil.rmtree(directory)

    run = Run(spec, seed, engine, oracle)
    gc.collect()
    gc.freeze()  # the oracle's rows are not the engine's garbage
    # warm-up: caches fill, and the rate sizes the equal rounds
    unit = math.lcm(spec.batch, spec.period)
    chunk = max(unit, 8 * spec.batch // unit * unit)
    warm_ops, warm_began = 0, time.perf_counter()
    while time.perf_counter() - warm_began < seconds / 10:
        run.round(chunk)
        warm_ops += chunk
    # sized by the clock on the wall, checking included: --seconds is the
    # time the measured phase takes
    per_second = warm_ops / (time.perf_counter() - warm_began)
    per_round = max(chunk, int(per_second * seconds / ROUNDS) // unit * unit)
    rates, medians, tails, samples = [], [], [], 0
    for _ in range(ROUNDS):
        latencies = run.round(per_round)
        rates.append(rate(latencies, spec.batch))
        trips = sorted(s for one in latencies for s in one)
        medians.append(percentile(trips, 0.50) * 1000.0)
        tails.append(percentile(trips, 0.99) * 1000.0)
        samples += len(trips)
    end = engine.finish(oracle, spec.writes)
    # after peak memory was read: the probe opens two more engines here
    probe = (
        durability.probe(probe_dir, data, seed) if spec.name == "write_commit" else None
    )
    lost = probe["acked_lost"] if probe else 0
    failed = run.failed + end["state_errors"] + lost
    # every time is the median over the rounds of that round's value: a
    # neighbour's burst slows some rounds, and the median drops them
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_s": statistics.median(rates),
        "p50_ms": statistics.median(medians),
        "p99_ms": statistics.median(tails),
        "space_amp": dataset.stored_bytes(path) / data.canonical_bytes,
        "peak_rss_mb": end["peak_rss_kb"] / 1024.0,
    }
    info = {
        "samples": samples,
        "statements_per_sample": spec.batch,
        "rounds": ROUNDS,
        "ops_per_round": spec.clients * per_round,
        "round_ops_s": rates,
        "round_p99_ms": tails,
        "state_errors": end["state_errors"],
        "reply_sha256": [sha.hexdigest() for sha in run.reply_sha],
        "durability_probe": probe,
    }
    return metrics, run.attempted, failed, info


def measure_per_layer(spec, seed: int, seconds: float, work: str):
    from repro.obs import METRICS, WAITS

    data = dataset.generate(seed)
    oracle = Oracle(data)
    path = build_subprocess(seed, os.path.join(work, "setup"))
    tracer = Tracer()
    probe = None
    if spec.name == "write_commit":
        probe_dir = os.path.join(work, "probe")
        shutil.copytree(os.path.dirname(path), probe_dir)
        tracer.install()
        try:
            probe = durability.probe(probe_dir, data, seed)
        finally:
            tracer.uninstall()
        recover_s = tracer.busy_seconds("recovery.recover")[-1]
        tracer.spans.clear()
    engine = open_engine(spec, path, in_process=True)
    db = engine.db
    run = Run(spec, seed, engine, oracle, tracer)
    unit = math.lcm(spec.batch, spec.period)
    per_client = max(
        unit, int(spec.traced_ops * seconds / 10 / spec.clients) // unit * unit
    )
    ops = per_client * spec.clients
    # three equal passes over consecutive stretches of the tape: plain,
    # spans on (the times), METRICS on (the counts) — with both on at once
    # the counters' own cost lands in the spans of the layers that count
    plain_s = busy(run.round(per_client))
    tracer.install()
    try:
        traced_s = busy(run.round(per_client, traced=True))
    finally:
        tracer.uninstall()
    METRICS.enable()
    db.reset_io_stats()
    before = {
        "metrics": METRICS.totals(),
        "wal": db.wal.stats(),
        "locks": db.locks.stats(),
        "waits": WAITS.totals(),
        "user_bytes": run.user_bytes,
        "reply_bytes": run.reply_bytes,
    }
    try:
        counted_s = busy(run.round(per_client))
        counters = METRICS.delta(before["metrics"])
    finally:
        METRICS.disable()
        METRICS.reset()
    buffer = db.buffer.stats.snapshot()
    wal = {
        k: v - before["wal"][k]
        for k, v in db.wal.stats().items()
        if isinstance(v, int) and not isinstance(v, bool)
    }
    lock_grants = db.locks.stats()["lock.grants"] - before["locks"]["lock.grants"]
    lock_wait_ms = sum(
        ms - before["waits"].get(event, (0, 0.0))[1]
        for event, (_, ms) in WAITS.totals().items()
        if event.startswith("Lock/")
    )
    end = engine.finish(oracle, spec.writes)
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"spans-{spec.name}.jsonl"))

    self_s = tracer.self_seconds()

    def per_op_ms(total_seconds: float) -> float:
        return total_seconds * 1000.0 / ops

    def count(name: str) -> float:
        return counters.get(name, 0.0)

    client_busy = sum(tracer.busy_seconds("client.op"))
    if spec.surface == "wire":
        # the client's wait minus what the statement entry point covers
        server_s = (
            client_busy
            - sum(tracer.busy_seconds("server.process_statement"))
            + self_s.get("server", 0.0)
        )
    else:
        server_s = 0.0
    layers_s = server_s + sum(
        v for k, v in self_s.items() if k not in ("client", "server")
    )
    checkpoints = tracer.busy_seconds("Database.checkpoint")
    lost = probe["acked_lost"] if probe else 0
    failed = run.failed + end["state_errors"] + lost
    m = dict.fromkeys(PER_LAYER, 0.0)
    for metric, bucket in SELF_TIME.items():
        m[metric] = per_op_ms(self_s.get(bucket, 0.0))
    for metric, names in PER_OP_COUNTS.items():
        m[metric] = sum(count(name) for name in names) / ops
    m.update({
        "server.self_ms": per_op_ms(server_s),
        "server.requests": count("server.requests"),
        "server.rejected_share": ratio(count("server.rejected"), count("server.requests")),
        "server.reply_bytes": (run.reply_bytes - before["reply_bytes"]) / ops,
        "parser.cache_hit_share": ratio(count("exec.parse_hits"), count("query.statements")),
        "compile.cache_hit_share": ratio(
            count("exec.compile_hits"), count("exec.compile_hits") + count("exec.compiles")
        ),
        "compile.fallbacks": count("exec.compile_fallbacks"),
        "executor.rows_scanned_per_result": ratio(
            count("query.rows_scanned"), count("query.rows_emitted")
        ),
        "executor.lazy_rows_share": ratio(
            count("exec.lazy_rows"), count("storage.objects_opened")
        ),
        "storage.logical_reads": buffer["logical_reads"] / ops,
        "storage.physical_reads": buffer["physical_reads"] / ops,
        "storage.hit_ratio": buffer["hit_ratio"] or 0.0,
        "storage.evictions": buffer["evictions"] / ops,
        "storage.distinct_pages": float(buffer["distinct_pages"]),
        "wal.fsyncs_per_commit": ratio(wal["fsyncs"], wal["commits"]),
        "wal.bytes_per_commit": ratio(wal["bytes_appended"], wal["commits"]),
        "wal.checkpoints": float(wal["checkpoints"]),
        "wal.checkpoint_ms_total": sum(checkpoints) * 1000.0,
        "wal.checkpoint_stall_max_ms": max(checkpoints, default=0.0) * 1000.0,
        "locks.requests": lock_grants / ops,
        "locks.wait_ms": lock_wait_ms / ops,
        "latch.contention": count("latch.contention"),
        "write_amp": ratio(wal["bytes_appended"], run.user_bytes - before["user_bytes"]),
        "failed_share": failed / run.attempted,
        "acked_lost": float(lost),
        "trace.op_ms": per_op_ms(client_busy),
        "trace.self_sum_ms": per_op_ms(layers_s),
        "trace.overhead_share": 1.0 - plain_s / traced_s,
        "metrics.overhead_share": 1.0 - plain_s / counted_s,
        "trace.ops": float(ops),
    })
    if probe:
        m["wal.recover_ms"] = recover_s * 1000.0
        m["wal.recover_records"] = float(probe["recover_records"])
    info = {
        "spans": len(tracer.spans),
        "reply_sha256": [sha.hexdigest() for sha in run.reply_sha],
        "durability_probe": probe,
    }
    return m, run.attempted, failed, info


# -- one workload, one pass (contract mode) -----------------------------------------


def fingerprint() -> dict:
    os.makedirs(WORK, exist_ok=True)
    filesystem = "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            best = ""
            for line in mounts:
                _, mount, kind = line.split()[:3]
                if os.path.realpath(WORK).startswith(mount) and len(mount) >= len(best):
                    best, filesystem = mount, kind
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "filesystem": filesystem,
        "git_sha": sha,
    }


def run_contract(args) -> int:
    # one CPU for the clients, the engine and (inherited) the load and
    # server subprocesses.  Left to the scheduler the placement differs
    # from run to run; with the server on a CPU of its own every round trip
    # wakes an idle virtual CPU twice, presumably why wire_point was 0.8x
    # as fast there, its rounds 816 to 1,274 ops/s against 1,239 to 1,370
    # on one CPU, and wire_mix no faster
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{spec.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, attempted, failed, info = measure(spec, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    info.update(
        workload=spec.name, seed=args.seed, seconds=args.seconds,
        trace=args.trace, clients=spec.clients, loop="closed",
        tape_sha256=workloads.tape_sha256(spec, args.seed),
        environment=fingerprint(),
    )
    for name, unit in units.items():
        print(f"{spec.name:13s} {name:34s} {metrics[name]:16.6f} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if failed == 0 else 1


# -- all workloads, --check, --calibrate -------------------------------------------


def run_set(seed: int, seconds: int) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    report = {}
    for name in workloads.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            done = subprocess.run(
                [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                ],
                capture_output=True, text=True,
            )
            lines = done.stdout.splitlines()
            if done.returncode not in (0, 1) or not lines:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{name} --trace {trace} did not finish")
            result = json.loads(lines[-1])
            info = json.loads(next(l for l in lines if l.startswith("info "))[5:])
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
            entry[f"{key}_verdict"] = {
                k: result[k] for k in ("correct", "attempted", "failed")
            }
            entry[f"{key}_info"] = info
        report[name] = entry
        print(f"# {name}: done", file=sys.stderr)
    return report


def print_report(report: dict) -> None:
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        names = list(report)
        print(f"\n{key:34s} {'unit':6s} " + " ".join(f"{n:>12s}" for n in names))
        for metric, unit in units.items():
            cells = " ".join(f"{report[n][key][metric]:12.4f}" for n in names)
            print(f"{metric:34s} {unit:6s} {cells}")


def compare(first: dict, second: dict, bounds: dict) -> dict:
    """Relative difference of the second set from the first, per metric x
    workload; a pair wider than its bound is UNRESOLVED, not unchanged."""
    spreads = {}
    print(f"\n{'workload':13s} {'metric':12s} {'first':>12s} {'second':>12s} {'diff':>8s} {'bound':>6s}")
    for name in first:
        for metric in END_TO_END:
            a = first[name]["end_to_end"][metric]
            b = second[name]["end_to_end"][metric]
            diff = abs(b - a) / a
            spreads[metric] = max(spreads.get(metric, 0.0), diff)
            verdict = "PASS" if diff <= bounds[metric] else "UNRESOLVED"
            print(f"{name:13s} {metric:12s} {a:12.4f} {b:12.4f} {diff:8.2%} {bounds[metric]:6.0%} {verdict}")
    return spreads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="measure for 1 second")
    parser.add_argument("--check", action="store_true",
                        help="run two sets and compare them against the bounds")
    parser.add_argument("--calibrate", action="store_true",
                        help="--check, then write max(stated, 2 x measured) bounds")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"nothing to measure: {SRC}/repro is not there")
    # the load and server subprocesses import the engine too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    )
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    if args.seconds is None:
        args.seconds = 1 if args.quick else benchmark["run_seconds"]
    if args.workload:
        return run_contract(args)

    report = {
        "schema": 1,
        "claim": None,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": fingerprint(),
        "workloads": run_set(args.seed, args.seconds),
    }
    print_report(report["workloads"])
    sets = [report["workloads"]]
    if args.check or args.calibrate:
        bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
        sets.append(run_set(args.seed, args.seconds))
        spreads = compare(sets[0], sets[1], bounds)
        report["second_set"] = sets[1]
        if args.calibrate:
            for metric in benchmark["end_to_end"]:
                metric["bound"] = round(
                    min(0.25, max(metric["bound"], 2 * spreads[metric["name"]])), 3
                )
            with open(BENCHMARK_JSON, "w", encoding="utf-8") as handle:
                json.dump(benchmark, handle, indent=2)
                handle.write("\n")
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    failed = sum(
        entry[f"{key}_verdict"]["failed"]
        for one in sets for entry in one.values()
        for key in ("end_to_end", "per_layer")
    )
    print(f"\nfailed operations: {failed}   report: {os.path.join(WORK, 'report.json')}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
