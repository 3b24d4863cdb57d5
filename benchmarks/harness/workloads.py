"""The seven workloads: engine configuration and seeded statement tapes.

A tape is an endless, deterministic stream of :class:`Op` — the statement
text the program receives plus the parameters the oracle needs to know
what the statement must return.  The same ``(workload, seed, client)``
always yields the same stream; ``tape_sha256`` hashes its first
``HASHED_OPS`` statements.

Every single-client tape has a heavy statement in every HEAVY_EVERY-th
place — a scan of the longer flat table, a fetch of several departments, a
range of four times the departments, a probe for the popular PNO, a
DEPARTMENTS write — that costs three times a light one or more.  The
heaviest hundredth of its statements therefore lies inside that class, and
``p99_ms`` reads the program's cost of the heavy case; where every
statement costs the same, it would read the handful of statements the host
interrupted.

Writes are size-neutral: every insert is paired with a later delete, so a
table measured for ten seconds is as long at the end as at the start (each
commit logs a whole catalog snapshot, so a growing table would measure its
own length).  Writes only touch attributes that no read of the same
workload observes, which keeps every read's expected result fixed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import dataset

HASHED_OPS = 1000


class Op(NamedTuple):
    kind: str
    sql: str
    args: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "embedded" calls ``Database.execute``; "wire" goes through
    #: ``repro.server`` with blocking ``LineClient`` sessions
    surface: str
    buffer_pages: int
    clients: int = 1
    #: statements per round trip (``LineClient.pipeline`` when > 1)
    batch: int = 1
    writes: bool = False
    #: statements after which the tape's mix of statement kinds repeats;
    #: rounds are whole periods, so every round holds the same mix
    period: int = 1
    #: statements of the traced pass at ``--seconds 10`` (fixed counts, so
    #: the page and log counters repeat exactly for one seed)
    traced_ops: int = 400


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flat_scan",
            "flat 1NF table is the degenerate case: columnar scan + sort in "
            "query.compile/executor and storage.heap; no index, log or wire; "
            "1 in 32 scans the 3x longer archive",
            "embedded", buffer_pages=4096, period=32, traced_ops=300,
        ),
        Workload(
            "point_hot",
            "whole-object fetch by key, 25% first-seen texts: per-statement "
            "fixed cost (parse, bind, plan, compile cache, one probe, one "
            "decode, facade) dominates; 1 in 32 fetches 8 objects",
            "embedded", buffer_pages=4096, period=32, traced_ops=2000,
        ),
        Workload(
            "nav_cold",
            "nested 3-level SELECT over a DNO range with a 64-page buffer "
            "(1/8 of DEPARTMENTS): evictions, page reads, MD navigation and "
            "subtuple decode in storage; 1 in 32 ranges 4x as far",
            "embedded", buffer_pages=64, period=32, traced_ops=300,
        ),
        Workload(
            "conj_index",
            "section 4.2 conjunction settled index-only by hierarchical "
            "addresses: candidates opened lazily, data subtuples never "
            "decoded - the inverse of nav_cold; 1 in 32 probes the popular PNO",
            "embedded", buffer_pages=4096, period=32, traced_ops=600,
        ),
        Workload(
            "write_commit",
            "single-statement commits, fsync each: tuple lookup by scan, "
            "catalog snapshot + fsync per commit, index maintenance; query "
            "layers little",
            "embedded", buffer_pages=4096, writes=True, period=32, traced_ops=320,
        ),
        Workload(
            "wire_point",
            "point_hot tape (atoms only) over one unpipelined connection: "
            "what the wire adds - framing, loop-to-worker hop, session, "
            "reply rendering; 1 in 32 fetches 16 rows",
            "wire", buffer_pages=4096, period=32, traced_ops=1500,
        ),
        Workload(
            "wire_mix",
            "2 pipelining connections, point 40 / conjunction 25 / text "
            "search 20 / write 15: sessions, locks, admission and the log "
            "beside reads",
            "wire", buffer_pages=4096, clients=2, batch=4, writes=True,
            period=20, traced_ops=480,
        ),
    )
}

#: wire_mix operation shares as 20 shuffled slots (its ``period``):
#: 40 / 25 / 20 / 15 %
MIX_SLOTS = ("point",) * 8 + ("conj",) * 5 + ("search",) * 4 + ("write",) * 3

#: EVENTS rows kept alive by a write tape (sliding window)
EVENT_WINDOW = 32
#: one statement in this many is the tape's heavy one: on flat_scan a scan
#: of EMPARCH, on point_hot and wire_point a fetch of POINT_SPAN_HEAVY
#: consecutive departments, on nav_cold a range of NAV_SPAN_HEAVY, on
#: conj_index a probe for the popular PNO, on write_commit a DEPARTMENTS
#: statement (root UPDATE or a partial member INSERT/DELETE; they find their
#: tuples by scanning the table, so one costs ~30 EVENTS writes, and at this
#: share the workload still completes ~1,000 statements in ten seconds).
#: The ``period`` of these workloads.
HEAVY_EVERY = 32

SEARCH_WORDS = (
    "database systems design concurrency recovery optimization hierarchies "
    "relations storage search computer office automation engineering "
    "graphics network protocol transaction locking version temporal "
    "compiler robotics schema integration performance clustering"
).split()


WRITE_KINDS = frozenset(
    ("event_insert", "event_delete", "update_budget", "member_insert", "member_delete")
)


def user_bytes(op: Op) -> int:
    """Canonical bytes of user data a write statement stores or removes
    (8 per number, UTF-8 length per string) — the base of ``write_amp``."""
    if op.kind in ("event_insert", "event_delete"):
        return 8 + len(f"event {op.args[0]}")
    if op.kind == "update_budget":
        return 8
    return 8 + len("Temp")


def _rng(workload: str, seed: int, client: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{client}")


# -- statement builders (the oracle mirrors each shape) ---------------------


def flat_op(table: str, group: int, floor: int) -> Op:
    return Op(
        "flat",
        f"SELECT e.EMPNO, e.SAL FROM e IN {table} "
        f"WHERE e.GRP = {group} AND e.SAL > {floor} ORDER BY e.SAL DESC",
        (table, group, floor),
    )


def point_op(low: int, high: int, noise: int | None, atoms_only: bool) -> Op:
    """Fetch the departments *low*..*high* by key — one, but for the heavy
    statement.  *noise* adds a conjunct that is true for every department
    (budgets start at 100,000) but makes the text — and the plan-cache
    fingerprint — one the engine has not seen."""
    columns = (
        "x.DNO, x.MGRNO"
        if atoms_only
        else "x.DNO, x.MGRNO, x.PROJECTS, x.BUDGET, x.EQUIP"
    )
    key = f"x.DNO = {low}" if low == high else f"x.DNO >= {low} AND x.DNO <= {high}"
    extra = "" if noise is None else f" AND x.BUDGET > {noise}"
    return Op(
        "point_atoms" if atoms_only else "point",
        f"SELECT {columns} FROM x IN DEPARTMENTS WHERE {key}{extra}",
        (low, high),
    )


def nav_op(low: int, high: int) -> Op:
    return Op(
        "nav",
        "SELECT x.DNO, (SELECT y.PNO, (SELECT z.EMPNO, z.FUNCTION "
        "FROM z IN y.MEMBERS) FROM y IN x.PROJECTS) FROM x IN DEPARTMENTS "
        f"WHERE x.DNO >= {low} AND x.DNO <= {high}",
        (low, high),
    )


def conj_op(pno: int) -> Op:
    return Op(
        "conj",
        "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS "
        f"(y.PNO = {pno} AND EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant')",
        (pno,),
    )


def search_op(fragment: str) -> Op:
    return Op(
        "search",
        "SELECT x.REPNO FROM x IN REPORTS "
        f"WHERE x.TITLE CONTAINS '*{fragment}*'",
        (fragment,),
    )


# -- tapes ------------------------------------------------------------------


def _flat_tape(rng: random.Random) -> Iterator[Op]:
    for n in itertools.count():
        table = "EMPARCH" if n % HEAVY_EVERY == HEAVY_EVERY - 1 else "EMPFLAT"
        yield flat_op(
            table,
            rng.randrange(dataset.FLAT_GROUPS),
            rng.randrange(1000, 1000 + 10 * dataset.FLAT_ROWS[table]),
        )


def _nav_tape(rng: random.Random) -> Iterator[Op]:
    for n in itertools.count():
        span = NAV_SPAN_HEAVY if n % HEAVY_EVERY == HEAVY_EVERY - 1 else NAV_SPAN
        low = dataset.FIRST_DNO + rng.randrange(dataset.DEPARTMENTS - span + 1)
        yield nav_op(low, low + span - 1)


def _regular_pno(rng: random.Random) -> int:
    return dataset.POPULAR_PNO + 1 + rng.randrange(dataset.PNO_DOMAIN - 1)


def _conj_tape(rng: random.Random) -> Iterator[Op]:
    for n in itertools.count():
        if n % HEAVY_EVERY == HEAVY_EVERY - 1:
            yield conj_op(dataset.POPULAR_PNO)
        else:
            yield conj_op(_regular_pno(rng))


def _point_tape(
    rng: random.Random, atoms_only: bool, client: int = 0, heavy_span: int = 0
) -> Iterator[Op]:
    """Without *heavy_span* every statement fetches one department."""
    # budgets never fall below 100,000: every noise literal stays under it,
    # and each client draws from its own range so texts stay first-seen
    noise = itertools.count(1 + 40_000 * client)
    for n in itertools.count():
        if heavy_span and n % HEAVY_EVERY == HEAVY_EVERY - 1:
            # 249 or 241 texts: most are first-seen without a noise literal
            starts = dataset.DEPARTMENTS - heavy_span + 1
            low = dataset.FIRST_DNO + rng.randrange(starts)
            yield point_op(low, low + heavy_span - 1, None, atoms_only)
            continue
        dno = dataset.FIRST_DNO + rng.randrange(dataset.DEPARTMENTS)
        first_seen = rng.random() < 0.25
        yield point_op(dno, dno, next(noise) if first_seen else None, atoms_only)


def _write_tape(
    rng: random.Random, client: int, clients: int, departments: bool = True
) -> Iterator[Op]:
    """Size-neutral single-statement writes.  Each client owns the
    departments with ``index % clients == client`` and its own SEQ and
    EMPNO ranges, so concurrent tapes never touch the same tuple.
    Without *departments* only EVENTS is written."""
    own = [
        dataset.FIRST_DNO + i
        for i in range(dataset.DEPARTMENTS)
        if i % clients == client
    ]
    seq = 1_000_000 * (client + 1)
    oldest = seq
    empno = 900_000 + 10_000 * client
    extra_members: list[tuple[int, int, int]] = []
    for n in itertools.count():
        if departments and n % HEAVY_EVERY == HEAVY_EVERY - 1:
            turn = n // HEAVY_EVERY
            if turn % 2 == 0:
                dno = rng.choice(own)
                budget = rng.randrange(100_000, 900_000, 10_000)
                yield Op(
                    "update_budget",
                    f"UPDATE DEPARTMENTS x SET BUDGET = {budget} "
                    f"WHERE x.DNO = {dno}",
                    (dno, budget),
                )
            elif turn % 4 == 1:
                dno = rng.choice(own)
                pno = dataset.pno(
                    dno - dataset.FIRST_DNO,
                    rng.randrange(dataset.PROJECTS_PER_DEPARTMENT),
                )
                empno += 1
                extra_members.append((dno, pno, empno))
                yield Op(
                    "member_insert",
                    "INSERT INTO y.MEMBERS FROM x IN DEPARTMENTS, "
                    f"y IN x.PROJECTS WHERE x.DNO = {dno} AND y.PNO = {pno} "
                    f"VALUES ({empno}, 'Temp')",
                    (dno, pno, empno),
                )
            else:
                dno, pno, gone = extra_members.pop(0)
                yield Op(
                    "member_delete",
                    "DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, "
                    f"z IN y.MEMBERS WHERE x.DNO = {dno} AND y.PNO = {pno} "
                    f"AND z.EMPNO = {gone}",
                    (dno, pno, gone),
                )
        elif seq - oldest < EVENT_WINDOW or n % 2 == 0:
            yield Op(
                "event_insert",
                f"INSERT INTO EVENTS VALUES ({seq}, 'event {seq}')",
                (seq,),
            )
            seq += 1
        else:
            yield Op(
                "event_delete",
                f"DELETE FROM EVENTS e WHERE e.SEQ = {oldest}",
                (oldest,),
            )
            oldest += 1


def _mix_tape(rng: random.Random, client: int, clients: int) -> Iterator[Op]:
    points = _point_tape(rng, atoms_only=True, client=client)
    # EVENTS only: a DEPARTMENTS write scans the table under X locks for
    # ~150 ms, and whether the other connection's batch runs into it is a
    # matter of timing — the throughput of a run would be a coin toss
    writes = _write_tape(rng, client, clients, departments=False)
    while True:
        slots = list(MIX_SLOTS)
        rng.shuffle(slots)
        for slot in slots:
            if slot == "point":
                yield next(points)
            elif slot == "conj":
                # under a session every candidate is loaded and tested
                # again: the popular PNO would be a 35 ms statement in 3 %
                # of the batches, a few a round, and p99_ms their count
                yield conj_op(_regular_pno(rng))
            elif slot == "search":
                yield search_op(rng.choice(SEARCH_WORDS)[:6])
            else:
                yield next(writes)


#: departments one nav_cold statement ranges over: 16 pages of a 64-page
#: buffer, and for the heavy one as many pages as the buffer has
NAV_SPAN = 8
NAV_SPAN_HEAVY = 32
#: departments the heavy statement of a point tape fetches: whole objects
#: on point_hot (5 ms against 0.8 ms for one, 1.2 ms first-seen), atoms on
#: wire_point (3.4 ms against 0.55 ms, 1.0 ms first-seen)
POINT_SPAN_HEAVY = {"point_hot": 8, "wire_point": 16}


def tape(workload: Workload, seed: int, client: int = 0) -> Iterator[Op]:
    rng = _rng(workload.name, seed, client)
    name = workload.name
    if name == "flat_scan":
        return _flat_tape(rng)
    if name in POINT_SPAN_HEAVY:
        return _point_tape(
            rng, atoms_only=name == "wire_point", heavy_span=POINT_SPAN_HEAVY[name]
        )
    if name == "nav_cold":
        return _nav_tape(rng)
    if name == "conj_index":
        return _conj_tape(rng)
    if name == "write_commit":
        return _write_tape(rng, client, workload.clients)
    if name == "wire_mix":
        return _mix_tape(rng, client, workload.clients)
    raise KeyError(name)


def tape_sha256(workload: Workload, seed: int) -> str:
    digest = hashlib.sha256()
    for client in range(workload.clients):
        for op in itertools.islice(tape(workload, seed, client), HASHED_OPS):
            digest.update(op.sql.encode("utf-8"))
            digest.update(b"\n")
    return digest.hexdigest()
