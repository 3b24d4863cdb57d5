"""The paper's example tables (Tables 1-8), verbatim.

The published scan is 180-degree-rotated OCR; all numeric values, structure,
and the values the running text depends on (department numbers, manager
numbers, budgets, project numbers/names, employee numbers, functions, and
the equipment of department 314) decode unambiguously and are reproduced
exactly.  A handful of name strings in Tables 6 and 8 are typographically
unrecoverable; they are replaced by fixed plausible constants, documented in
EXPERIMENTS.md.  Every fact the paper *states* about this data holds here:

* the data subtuples quoted in Section 4.1 ('314 56194 320,000', '17 CGA',
  '39582 Leader', '2 3278');
* exactly three consultants: 56019 (dept 314), 89921 and 44512 (dept 218);
* the consultant-department query yields DNOs {314, 218};
* the consultant-project query yields PNOs {17, 25};
* Example 6 ("only consultants") yields the empty table;
* report 0179 has 'Jones A' as its first (and only) author;
* EMPLOYEES-1NF has one tuple per project member and per manager of Table 5.
"""

from __future__ import annotations

from repro.model.schema import TableSchema, atomic, list_of, nested, table
from repro.model.values import TableValue

# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------

MEMBERS_SCHEMA = table(
    "MEMBERS",
    atomic("EMPNO", "INT"),
    atomic("FUNCTION", "STRING"),
)

PROJECTS_SCHEMA = table(
    "PROJECTS",
    atomic("PNO", "INT"),
    atomic("PNAME", "STRING"),
    nested("MEMBERS", MEMBERS_SCHEMA),
)

EQUIP_SCHEMA = table(
    "EQUIP",
    atomic("QU", "INT"),
    atomic("TYPE", "STRING"),
)

#: Table 5 — the NF2 DEPARTMENTS table.
DEPARTMENTS_SCHEMA = table(
    "DEPARTMENTS",
    atomic("DNO", "INT"),
    atomic("MGRNO", "INT"),
    nested("PROJECTS", PROJECTS_SCHEMA),
    atomic("BUDGET", "INT"),
    nested("EQUIP", EQUIP_SCHEMA),
)

#: Table 6 — REPORTS, with an ordered AUTHORS subtable (a list).
REPORTS_SCHEMA = table(
    "REPORTS",
    atomic("REPNO", "STRING"),
    nested("AUTHORS", list_of("AUTHORS", atomic("NAME", "STRING"))),
    atomic("TITLE", "STRING"),
    nested(
        "DESCRIPTORS",
        table("DESCRIPTORS", atomic("KEYWORD", "STRING"), atomic("WEIGHT", "FLOAT")),
    ),
)

#: Tables 1-4 — the flat (1NF) decomposition of DEPARTMENTS.
DEPARTMENTS_1NF_SCHEMA = table(
    "DEPARTMENTS-1NF",
    atomic("DNO", "INT"),
    atomic("MGRNO", "INT"),
    atomic("BUDGET", "INT"),
)

PROJECTS_1NF_SCHEMA = table(
    "PROJECTS-1NF",
    atomic("PNO", "INT"),
    atomic("PNAME", "STRING"),
    atomic("DNO", "INT"),
)

MEMBERS_1NF_SCHEMA = table(
    "MEMBERS-1NF",
    atomic("EMPNO", "INT"),
    atomic("PNO", "INT"),
    atomic("DNO", "INT"),
    atomic("FUNCTION", "STRING"),
)

EQUIP_1NF_SCHEMA = table(
    "EQUIP-1NF",
    atomic("QU", "INT"),
    atomic("TYPE", "STRING"),
    atomic("DNO", "INT"),
)

#: Table 8 — EMPLOYEES-1NF.
EMPLOYEES_1NF_SCHEMA = table(
    "EMPLOYEES-1NF",
    atomic("EMPNO", "INT"),
    atomic("LNAME", "STRING"),
    atomic("FNAME", "STRING"),
    atomic("SEX", "STRING"),
)

# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

#: Rows of Table 5 (DEPARTMENTS), in plain form.
DEPARTMENTS_ROWS = [
    {
        "DNO": 314,
        "MGRNO": 56194,
        "BUDGET": 320_000,
        "PROJECTS": [
            {
                "PNO": 17,
                "PNAME": "CGA",
                "MEMBERS": [
                    {"EMPNO": 39582, "FUNCTION": "Leader"},
                    {"EMPNO": 56019, "FUNCTION": "Consultant"},
                    {"EMPNO": 69011, "FUNCTION": "Secretary"},
                ],
            },
            {
                "PNO": 23,
                "PNAME": "HEAR",
                "MEMBERS": [
                    {"EMPNO": 58912, "FUNCTION": "Staff"},
                    {"EMPNO": 90011, "FUNCTION": "Leader"},
                    {"EMPNO": 78218, "FUNCTION": "Secretary"},
                    {"EMPNO": 98902, "FUNCTION": "Staff"},
                ],
            },
        ],
        "EQUIP": [
            {"QU": 2, "TYPE": "3278"},
            {"QU": 3, "TYPE": "PC/AT"},
            {"QU": 1, "TYPE": "PC"},
        ],
    },
    {
        "DNO": 218,
        "MGRNO": 71349,
        "BUDGET": 440_000,
        "PROJECTS": [
            {
                "PNO": 25,
                "PNAME": "TEXT",
                "MEMBERS": [
                    {"EMPNO": 92100, "FUNCTION": "Leader"},
                    {"EMPNO": 89921, "FUNCTION": "Consultant"},
                    {"EMPNO": 99023, "FUNCTION": "Secretary"},
                    {"EMPNO": 44512, "FUNCTION": "Consultant"},
                    {"EMPNO": 89211, "FUNCTION": "Staff"},
                    {"EMPNO": 72723, "FUNCTION": "Staff"},
                ],
            },
        ],
        "EQUIP": [
            {"QU": 2, "TYPE": "3278"},
            {"QU": 1, "TYPE": "PC/AT"},
            {"QU": 1, "TYPE": "3179"},
            {"QU": 1, "TYPE": "PC/GA"},
        ],
    },
    {
        "DNO": 417,
        "MGRNO": 91093,
        "BUDGET": 360_000,
        "PROJECTS": [
            {
                "PNO": 37,
                "PNAME": "NEBS",
                "MEMBERS": [
                    {"EMPNO": 87710, "FUNCTION": "Secretary"},
                    {"EMPNO": 81193, "FUNCTION": "Leader"},
                    {"EMPNO": 75913, "FUNCTION": "Staff"},
                    {"EMPNO": 96001, "FUNCTION": "Staff"},
                ],
            },
        ],
        "EQUIP": [
            {"QU": 1, "TYPE": "4361"},
            {"QU": 1, "TYPE": "PC/XT"},
            {"QU": 1, "TYPE": "PC/AT"},
            {"QU": 2, "TYPE": "3278"},
            {"QU": 1, "TYPE": "3279"},
            {"QU": 1, "TYPE": "3179"},
            {"QU": 1, "TYPE": "PC/GA"},
        ],
    },
]

#: Rows of Table 6 (REPORTS).  Author/keyword strings normalized from the
#: damaged scan; report 0179's first author is 'Jones A' (Example 8) and
#: 0291 is co-authored by Jones (Section 5's text query).
REPORTS_ROWS = [
    {
        "REPNO": "0179",
        "AUTHORS": [{"NAME": "Jones A"}],
        "TITLE": "Concurrency and Consistency Control",
        "DESCRIPTORS": [
            {"KEYWORD": "Concurrency Control", "WEIGHT": 0.6},
            {"KEYWORD": "Recovery", "WEIGHT": 0.3},
            {"KEYWORD": "Distribution", "WEIGHT": 0.1},
        ],
    },
    {
        "REPNO": "0189",
        "AUTHORS": [{"NAME": "Tesla H"}, {"NAME": "Abraham G"}],
        "TITLE": "Text Editing and String Search",
        "DESCRIPTORS": [
            {"KEYWORD": "String Search", "WEIGHT": 0.7},
            {"KEYWORD": "Formatting", "WEIGHT": 0.3},
        ],
    },
    {
        "REPNO": "0291",
        "AUTHORS": [{"NAME": "Pool A"}, {"NAME": "Meyer P"}, {"NAME": "Jones A"}],
        "TITLE": "Branch and Bound Math Optimization",
        "DESCRIPTORS": [
            {"KEYWORD": "Branch and Bound", "WEIGHT": 0.6},
            {"KEYWORD": "Garbage Collection", "WEIGHT": 0.4},
        ],
    },
]

#: Table 8's employee directory.  The paper states EMPLOYEES-1NF "shall
#: contain one tuple for each project member and manager stored in Table 5";
#: name strings beyond the decodable ones are fixed constants.
EMPLOYEES_1NF_ROWS = [
    (39582, "Krueger", "Klaus", "male"),
    (56019, "Mayer", "Kay", "male"),
    (69011, "Andre", "Ina", "female"),
    (58912, "Walter", "Jan", "male"),
    (90011, "Hoffmann", "Eva", "female"),
    (78218, "Brandt", "Rita", "female"),
    (98902, "Fischer", "Udo", "male"),
    (92100, "Keller", "Max", "male"),
    (89921, "Lorenz", "Anna", "female"),
    (99023, "Vogel", "Mia", "female"),
    (44512, "Berger", "Tom", "male"),
    (89211, "Winter", "Nils", "male"),
    (72723, "Sommer", "Lena", "female"),
    (87710, "Wagner", "Else", "female"),
    (81193, "Schulz", "Bernd", "male"),
    (75913, "Peters", "Olaf", "male"),
    (96001, "Baursen", "Hope", "female"),
    # managers
    (56194, "Schmidt", "Horst", "male"),
    (71349, "Neumann", "Karl", "male"),
    (91093, "Richter", "Grit", "female"),
]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def departments() -> TableValue:
    """Table 5 as a TableValue."""
    return TableValue.from_plain(DEPARTMENTS_SCHEMA, DEPARTMENTS_ROWS)


def reports() -> TableValue:
    """Table 6 as a TableValue."""
    return TableValue.from_plain(REPORTS_SCHEMA, REPORTS_ROWS)


def departments_1nf() -> TableValue:
    """Table 1, derived from Table 5 (the paper presents both views of the
    same data)."""
    rows = [
        (d["DNO"], d["MGRNO"], d["BUDGET"]) for d in DEPARTMENTS_ROWS
    ]
    return TableValue.from_plain(DEPARTMENTS_1NF_SCHEMA, rows)


def projects_1nf() -> TableValue:
    """Table 2."""
    rows = []
    for dept in DEPARTMENTS_ROWS:
        for project in dept["PROJECTS"]:
            rows.append((project["PNO"], project["PNAME"], dept["DNO"]))
    return TableValue.from_plain(PROJECTS_1NF_SCHEMA, rows)


def members_1nf() -> TableValue:
    """Table 3."""
    rows = []
    for dept in DEPARTMENTS_ROWS:
        for project in dept["PROJECTS"]:
            for member in project["MEMBERS"]:
                rows.append(
                    (member["EMPNO"], project["PNO"], dept["DNO"], member["FUNCTION"])
                )
    return TableValue.from_plain(MEMBERS_1NF_SCHEMA, rows)


def equip_1nf() -> TableValue:
    """Table 4."""
    rows = []
    for dept in DEPARTMENTS_ROWS:
        for item in dept["EQUIP"]:
            rows.append((item["QU"], item["TYPE"], dept["DNO"]))
    return TableValue.from_plain(EQUIP_1NF_SCHEMA, rows)


def employees_1nf() -> TableValue:
    """Table 8."""
    return TableValue.from_plain(EMPLOYEES_1NF_SCHEMA, EMPLOYEES_1NF_ROWS)
