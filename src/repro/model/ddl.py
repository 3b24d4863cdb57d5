"""DDL for extended NF2 tables.

The paper defers DDL details to /PT85, PA86/; we provide a natural syntax in
the same spirit::

    CREATE TABLE DEPARTMENTS (
        DNO INT,
        MGRNO INT,
        PROJECTS TABLE OF (
            PNO INT,
            PNAME STRING,
            MEMBERS TABLE OF (EMPNO INT, FUNCTION STRING)
        ),
        BUDGET INT,
        EQUIP TABLE OF (QU INT, TYPE STRING)
    )

``CREATE LIST name (...)`` declares an ordered top-level table; nested
ordered tables use ``LIST OF (...)``.  :func:`parse_create_table` returns the
:class:`~repro.model.schema.TableSchema`.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, Optional

from repro.errors import DataError, DDLError
from repro.model.schema import AttributeSchema, TableSchema, atomic, nested, table
from repro.model.types import AtomicType

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_\-/]*)
  | (?P<punct>[(),])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> Iterator[_Token]:
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise DDLError(f"unexpected character {text[position]!r} at {position}")
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        assert kind is not None
        yield _Token(kind, match.group(), match.start())
    yield _Token("eof", "", len(text))


class _Parser:
    def __init__(self, text: str):
        self._tokens = list(_tokenize(text))
        self._pos = 0

    # -- token helpers -------------------------------------------------------

    @property
    def _current(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._current
        self._pos += 1
        return token

    def _expect(self, text: str) -> _Token:
        token = self._current
        if token.text.upper() != text.upper():
            raise DDLError(
                f"expected {text!r} at position {token.position}, got {token.text!r}"
            )
        return self._advance()

    def _expect_ident(self) -> str:
        token = self._current
        if token.kind != "ident":
            raise DDLError(
                f"expected identifier at position {token.position}, got {token.text!r}"
            )
        self._advance()
        return token.text

    def _peek_keyword(self, word: str) -> bool:
        return self._current.text.upper() == word.upper()

    # -- grammar -------------------------------------------------------------

    def parse_create(self) -> TableSchema:
        self._expect("CREATE")
        ordered = False
        if self._peek_keyword("LIST"):
            ordered = True
            self._advance()
        else:
            self._expect("TABLE")
        name = self._expect_ident()
        attributes = self._parse_attribute_list()
        if self._current.kind != "eof":
            raise DDLError(
                f"unexpected trailing input at position {self._current.position}: "
                f"{self._current.text!r}"
            )
        return TableSchema(name=name, attributes=tuple(attributes), ordered=ordered)

    def _parse_attribute_list(self) -> list[AttributeSchema]:
        self._expect("(")
        attributes = [self._parse_attribute()]
        while self._current.text == ",":
            self._advance()
            attributes.append(self._parse_attribute())
        self._expect(")")
        return attributes

    def _parse_attribute(self) -> AttributeSchema:
        name = self._expect_ident()
        keyword = self._current.text.upper()
        if keyword in ("TABLE", "LIST"):
            self._advance()
            self._expect("OF")
            inner = self._parse_attribute_list()
            schema = table(name, *inner, ordered=(keyword == "LIST"))
            return nested(name, schema)
        type_name = self._expect_ident()
        try:
            atomic_type = AtomicType.parse(type_name)
        except DataError as exc:
            raise DDLError(f"unknown type {type_name!r} for attribute {name!r}") from exc
        return atomic(name, atomic_type)


def parse_create_table(text: str) -> TableSchema:
    """Parse a ``CREATE TABLE`` / ``CREATE LIST`` statement into a schema."""
    return _Parser(text).parse_create()


def schema_to_ddl(schema: TableSchema) -> str:
    """Render a schema back to DDL text (inverse of :func:`parse_create_table`)."""

    def render_attr(attr: AttributeSchema) -> str:
        if attr.is_atomic:
            assert attr.atomic_type is not None
            return f"{attr.name} {attr.atomic_type.value}"
        assert attr.table is not None
        kind = "LIST" if attr.table.ordered else "TABLE"
        inner = ", ".join(render_attr(a) for a in attr.table.attributes)
        return f"{attr.name} {kind} OF ({inner})"

    kind = "LIST" if schema.ordered else "TABLE"
    body = ", ".join(render_attr(attr) for attr in schema.attributes)
    return f"CREATE {kind} {schema.name} ({body})"
