"""Expected results, computed in pure Python from the generator's rows.

Nothing here asks the engine: every read shape of :mod:`workloads` is
answered from the plain rows of :mod:`dataset`, and the writes are applied
to a small model so the tables can be compared at the end of a run.
"""

from __future__ import annotations

import re

_TUPLES = re.compile(r"\((\d+) tuples?\)\s*$")


def shape(value):
    """Engine result or plain rows as nested tuples; the rows of a table
    are sorted, so two unordered relations compare equal."""
    if isinstance(value, dict):
        return tuple(shape(v) for v in value.values())
    if isinstance(value, list):
        return sorted((shape(v) for v in value), key=repr)
    return value


def parse_reply(payload: str):
    """A rendered flat result table -> (tuple count, rows of cell strings).
    ``None`` when the payload is not a result table."""
    match = _TUPLES.search(payload)
    if match is None:
        return None
    rows = [
        tuple(cell.strip() for cell in line.strip("|").split("|"))
        for line in payload.splitlines()
        if line.startswith("|")
    ]
    return int(match.group(1)), rows[1:]  # rows[0] is the header


class Oracle:
    def __init__(self, data):
        self.departments = {row["DNO"]: row for row in data.departments}
        self.flat = data.flat
        self.reports = data.reports
        # the write model: what the write tapes have changed so far
        self.events: set[int] = set()
        self.budgets = {dno: row["BUDGET"] for dno, row in self.departments.items()}
        self.temps: set[tuple[int, int, int]] = set()
        self._cache: dict = {}

    # -- reads --------------------------------------------------------------

    def expected(self, op):
        """The value :func:`shape` must give for *op*'s result."""
        if op.kind.startswith("point") or op.kind in ("conj", "search"):
            key = (op.kind, op.args)  # few distinct statements, many repeats
            if key not in self._cache:
                self._cache[key] = self._expected(op)
            return self._cache[key]
        return self._expected(op)

    def _expected(self, op):
        kind, args = op.kind, op.args
        if kind == "flat":
            table, group, floor = args
            rows = [
                (r["EMPNO"], r["SAL"])
                for r in self.flat[table]
                if r["GRP"] == group and r["SAL"] > floor
            ]
            return sorted(rows, key=lambda r: -r[1])
        if kind == "point":
            low, high = args
            return shape([self.departments[dno] for dno in range(low, high + 1)])
        if kind == "point_atoms":
            low, high = args
            rows = (self.departments[dno] for dno in range(low, high + 1))
            return [(row["DNO"], row["MGRNO"]) for row in rows]
        if kind == "nav":
            low, high = args
            return shape(
                [
                    {
                        "DNO": dno,
                        "PROJECTS": [
                            {
                                "PNO": p["PNO"],
                                "MEMBERS": [
                                    {"EMPNO": m["EMPNO"], "FUNCTION": m["FUNCTION"]}
                                    for m in p["MEMBERS"]
                                ],
                            }
                            for p in self.departments[dno]["PROJECTS"]
                        ],
                    }
                    for dno in range(low, high + 1)
                ]
            )
        if kind == "conj":
            return sorted(
                (dno,)
                for dno, row in self.departments.items()
                if any(
                    p["PNO"] == args[0]
                    and any(m["FUNCTION"] == "Consultant" for m in p["MEMBERS"])
                    for p in row["PROJECTS"]
                )
            )
        if kind == "search":
            fragment = args[0].lower()
            return sorted(
                (r["REPNO"],) for r in self.reports if fragment in r["TITLE"].lower()
            )
        return 1  # every write statement affects exactly one tuple

    def check(self, op, result) -> bool:
        """An embedded result (plain rows, affected count or exception)."""
        if isinstance(result, Exception):
            return False
        expected = self.expected(op)
        if isinstance(expected, int):
            return result == expected
        if op.kind == "flat":  # ORDER BY: the order is part of the answer
            return [tuple(row.values()) for row in result] == expected
        return shape(result) == expected

    def check_reply(self, op, payload: str) -> bool:
        """A wire reply: tuple count and every cell of the rendered table."""
        expected = self.expected(op)
        if isinstance(expected, int):
            return payload.strip() == "1 tuple affected"
        parsed = parse_reply(payload)
        if parsed is None:
            return False
        count, rows = parsed
        wanted = [tuple(str(cell) for cell in row) for row in expected]
        return count == len(wanted) and sorted(rows) == sorted(wanted)

    # -- writes -------------------------------------------------------------

    def apply(self, op) -> None:
        """Record an acknowledged write in the model."""
        kind, args = op.kind, op.args
        if kind == "event_insert":
            self.events.add(args[0])
        elif kind == "event_delete":
            self.events.discard(args[0])
        elif kind == "update_budget":
            self.budgets[args[0]] = args[1]
        elif kind == "member_insert":
            self.temps.add(args)
        elif kind == "member_delete":
            self.temps.discard(args)

    def state_errors(self, db) -> int:
        """Facts on which *db* and the model disagree (0 = every
        acknowledged write is readable and nothing else changed)."""
        events = {
            row["SEQ"] for row in db.query("SELECT e.SEQ FROM e IN EVENTS").rows
        }
        budgets = {
            row["DNO"]: row["BUDGET"]
            for row in db.query(
                "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS"
            ).rows
        }
        temps = {
            tuple(row.to_plain().values())
            for row in db.query(
                "SELECT x.DNO, y.PNO, z.EMPNO FROM x IN DEPARTMENTS, "
                "y IN x.PROJECTS, z IN y.MEMBERS WHERE z.FUNCTION = 'Temp'"
            ).rows
        }
        wrong_budgets = sum(
            1
            for dno in self.budgets.keys() | budgets.keys()
            if self.budgets.get(dno) != budgets.get(dno)
        )
        return len(events ^ self.events) + wrong_budgets + len(temps ^ self.temps)

