"""Seeded random SELECTs: the engine, with and without access paths,
answers what the reference evaluator does.

A small grammar builds statements over the parity database
(``tests.conftest.parity_database``, indexed here): stored and subtable
ranges, a stored join; comparisons, EXISTS/ALL over subtables and stored
tables, CONTAINS, IS NULL, NOT and OR; subscripts, aggregates,
select-list and expression-position subqueries; DISTINCT and ORDER BY.
Every statement runs three ways that must agree:

* the engine with its indexes (planner candidates, settled conjuncts,
  index nested loops, sort elision) — rows as a multiset;
* the engine with ``use_access_paths`` off (scans, the columnar path on
  flat tables) — rows in order when the statement sorts;
* ``tests/model/reference.py``.

This is the metamorphic relation "index path = scan path" (Afrati and
Damigos, PAPERS.md), with the reference as the third witness.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.database import Database

from tests.conftest import parity_database
from tests.model.reference import assert_matches_reference

#: table -> (atomic attributes with their types, subtables, list subtables)
TABLES = {
    "DEPARTMENTS": (
        {"DNO": "INT", "MGRNO": "INT", "BUDGET": "INT"},
        {"PROJECTS": "PROJECTS", "EQUIP": "EQUIP"},
    ),
    "PROJECTS": ({"PNO": "INT", "PNAME": "STRING"}, {"MEMBERS": "MEMBERS"}),
    "MEMBERS": ({"EMPNO": "INT", "FUNCTION": "STRING"}, {}),
    "EQUIP": ({"QU": "INT", "TYPE": "STRING"}, {}),
    "EMP": ({"ENAME": "STRING", "DEPT": "STRING", "SAL": "INT"}, {}),
    "EMPLOYEES-1NF": ({"EMPNO": "INT", "LNAME": "STRING", "SEX": "STRING"}, {}),
    "REPORTS": (
        {"REPNO": "STRING", "TITLE": "STRING"},
        {"AUTHORS": "AUTHORS", "DESCRIPTORS": "DESCRIPTORS"},
    ),
    "AUTHORS": ({"NAME": "STRING"}, {}),
    "DESCRIPTORS": ({"KEYWORD": "STRING", "WEIGHT": "FLOAT"}, {}),
}
#: ordered subtables: subscripts apply
LISTS = {"AUTHORS"}

LITERALS = {
    "INT": ["0", "2", "17", "25", "218", "314", "40000", "56019", "360000"],
    "FLOAT": ["0", "0.3", "0.5", "1"],
    "STRING": ["'Leader'", "'Staff'", "'CGA'", "'d2'", "'emp-007'", "'Jones A'", "'male'"],
}
PATTERNS = ["*a*", "C?A", "Staff", "*E*", "Jones*", "emp-0?1", "*Control*"]
NUMERIC = {"INT", "FLOAT"}

#: FROM shapes: (ranges as (var, source, kind), an optional join conjunct)
SHAPES = [
    ((("x", "DEPARTMENTS", "DEPARTMENTS"),), None),
    ((("x", "DEPARTMENTS", "DEPARTMENTS"), ("y", "x.PROJECTS", "PROJECTS")), None),
    ((("e", "EMP", "EMP"),), None),
    ((("r", "REPORTS", "REPORTS"),), None),
    (
        (("x", "DEPARTMENTS", "DEPARTMENTS"), ("m", "EMPLOYEES-1NF", "EMPLOYEES-1NF")),
        "m.EMPNO = x.MGRNO",
    ),
]


class Names:
    """Fresh tuple-variable names: the binder rejects shadowing."""

    def __init__(self) -> None:
        self.count = 0

    def fresh(self) -> str:
        self.count += 1
        return f"q{self.count}"


def atoms(scope):
    """``(expression, type)`` of every atomic value the scope reaches
    without flattening: first-level atoms and subscripted list paths."""
    out = []
    for var, kind in scope:
        attributes, subtables = TABLES[kind]
        out.extend((f"{var}.{name}", type_) for name, type_ in attributes.items())
        for sub, sub_kind in subtables.items():
            if sub_kind in LISTS:
                for position in (1, 2, 3):
                    for name, type_ in TABLES[sub_kind][0].items():
                        out.append((f"{var}.{sub}[{position}].{name}", type_))
    return out


def subtables(scope):
    return [
        (f"{var}.{sub}", sub_kind)
        for var, kind in scope
        for sub, sub_kind in TABLES[kind][1].items()
    ]


@st.composite
def aggregate(draw, scope, names, depth):
    """``(expression, type)`` of an aggregate over a subtable of the
    scope: flattened paths, or COUNT of an expression subquery."""
    source, kind = draw(st.sampled_from(subtables(scope)))
    attributes, nested = TABLES[kind]
    choice = draw(st.integers(0, 3 if depth > 0 else 2))
    if choice == 0:
        return f"COUNT({source})", "INT"
    if choice == 1 and nested:
        sub, sub_kind = draw(st.sampled_from(sorted(nested.items())))
        name = draw(st.sampled_from(sorted(TABLES[sub_kind][0])))
        return f"COUNT({source}.{sub}.{name})", "INT"
    if choice == 3:
        var = names.fresh()
        inner = [(var, kind)]
        name = draw(st.sampled_from(sorted(attributes)))
        where = draw(predicate(scope + inner, names, depth - 1))
        return f"COUNT((SELECT {var}.{name} FROM {var} IN {source} WHERE {where}))", "INT"
    name, type_ = draw(st.sampled_from(sorted(attributes.items())))
    functions = ["MIN", "MAX"] + (["SUM", "AVG"] if type_ in NUMERIC else [])
    function = draw(st.sampled_from(functions))
    return f"{function}({source}.{name})", "FLOAT" if function == "AVG" else type_


def comparable(type_):
    return NUMERIC if type_ in NUMERIC else {type_}


@st.composite
def comparison(draw, scope, names, depth):
    if subtables(scope) and draw(st.booleans()):
        left, type_ = draw(aggregate(scope, names, depth))
    else:
        left, type_ = draw(st.sampled_from(atoms(scope)))
    op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    others = [expr for expr, t in atoms(scope) if t in comparable(type_) and expr != left]
    if others and draw(st.integers(0, 3)) == 0:
        right = draw(st.sampled_from(others))
    else:
        right = draw(st.sampled_from(LITERALS[type_]))
    return f"{left} {op} {right}"


@st.composite
def quantifier(draw, scope, names, depth):
    kind = draw(st.sampled_from(["EXISTS", "ALL"]))
    var = names.fresh()
    keys = [expr for expr, type_ in atoms(scope) if type_ == "INT"]
    if keys and (not subtables(scope) or draw(st.integers(0, 3)) == 0):
        # over a stored table, tied to the outer scope (an index probe)
        outer = draw(st.sampled_from(keys))
        body = draw(predicate(scope + [(var, "EMPLOYEES-1NF")], names, depth - 1))
        return f"{kind} {var} IN EMPLOYEES-1NF: ({var}.EMPNO = {outer} AND {body})"
    source, sub_kind = draw(st.sampled_from(subtables(scope)))
    body = draw(predicate(scope + [(var, sub_kind)], names, depth - 1))
    return f"{kind} {var} IN {source}: ({body})"


@st.composite
def predicate(draw, scope, names, depth):
    strings = [e for e, t in atoms(scope) if t == "STRING"]
    kinds = ["cmp", "cmp", "null"] + (["contains"] if strings else [])
    if depth > 0:
        kinds += ["not", "or", "and", "quant", "quant"]
    kind = draw(st.sampled_from(kinds))
    if kind == "cmp":
        return draw(comparison(scope, names, depth))
    if kind == "null":
        subject, _type = draw(st.sampled_from(atoms(scope)))
        return f"{subject} IS {draw(st.sampled_from(['', 'NOT ']))}NULL"
    if kind == "contains":
        subject = draw(st.sampled_from(strings))
        negation = draw(st.sampled_from(["", "NOT "]))
        return f"{subject} {negation}CONTAINS '{draw(st.sampled_from(PATTERNS))}'"
    if kind == "quant":
        return draw(quantifier(scope, names, depth))
    if kind == "not":
        return f"NOT ({draw(predicate(scope, names, depth - 1))})"
    left = draw(predicate(scope, names, depth - 1))
    right = draw(predicate(scope, names, depth - 1))
    return f"({left} {kind.upper()} {right})"


@st.composite
def select_item(draw, scope, names):
    choice = draw(st.integers(0, 5))
    if choice == 4 and subtables(scope):
        return draw(aggregate(scope, names, 1))[0]
    if choice == 5 and subtables(scope):
        source, kind = draw(st.sampled_from(subtables(scope)))
        var = names.fresh()
        name = draw(st.sampled_from(sorted(TABLES[kind][0])))
        where = draw(predicate(scope + [(var, kind)], names, 1))
        return f"(SELECT {var}.{name} FROM {var} IN {source} WHERE {where})"
    return draw(st.sampled_from(atoms(scope)))[0]


@st.composite
def statements(draw):
    ranges, join = draw(st.sampled_from(SHAPES))
    scope = [(var, kind) for var, _source, kind in ranges]
    names = Names()
    items = draw(st.lists(select_item(scope, names), min_size=1, max_size=3))
    select = ", ".join(f"{item} AS C{i}" for i, item in enumerate(items))
    sql = "SELECT " + ("DISTINCT " if draw(st.booleans()) else "") + select
    sql += " FROM " + ", ".join(f"{var} IN {source}" for var, source, _kind in ranges)
    conditions = [join] if join is not None else []
    if draw(st.integers(0, 4)) > 0:
        conditions.append(draw(predicate(scope, names, 2)))
    if conditions:
        sql += " WHERE " + " AND ".join(f"({c})" for c in conditions)
    keys = draw(st.lists(st.sampled_from(atoms(scope)), max_size=2, unique=True))
    if keys:
        sql += " ORDER BY " + ", ".join(
            key + draw(st.sampled_from(["", " DESC"])) for key, _type in keys
        )
    return sql


@pytest.fixture(scope="module")
def db() -> Database:
    db = parity_database()
    db.create_index("DN", "DEPARTMENTS", "DNO")
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    db.create_index("PN_HIER", "DEPARTMENTS", "PROJECTS.PNO")
    db.create_index("FN_HIER", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    db.create_text_index("PNAME_TX", "DEPARTMENTS", "PROJECTS.PNAME")
    db.create_index("SAL_IX", "EMP", "SAL")
    db.create_index("EMPNO_IX", "EMPLOYEES-1NF", "EMPNO")
    return db


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sql=statements())
def test_index_path_scan_path_and_reference_agree(db, sql):
    try:
        db.use_access_paths = True
        assert_matches_reference(db, sql)
        db.use_access_paths = False
        assert_matches_reference(db, sql)
    finally:
        db.use_access_paths = True
