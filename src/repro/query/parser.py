"""Recursive-descent parser for the NF2 query language.

Grammar sketch (examples are the paper's)::

    query      : SELECT select_list FROM range (',' range)* [WHERE predicate]
    select_list: '*' | item (',' item)*
    item       : IDENT '=' '(' query ')'      -- nested result structure
               | IDENT '=' expr               -- renamed attribute
               | expr [AS IDENT]
    range      : IDENT IN source
    source     : (table-name | path) [ASOF 'YYYY-MM-DD']
    predicate  : or-expr;  quantifiers bind one following unary predicate:
                   EXISTS y IN x.EQUIP: y.TYPE = 'PC/AT'
                   ALL y IN x.PROJECTS: ALL z IN y.MEMBERS: z.FUNCTION = '...'
                 (the ':' is optional, matching the paper's layout)
    path       : IDENT ('[' INT ']')* ('.' IDENT ('[' INT ']')*)*
                 subscripts are 1-based (x.AUTHORS[1])

DML::

    INSERT INTO T VALUES (...), (...)        -- '{...}' relation / '<...>' list literals
    UPDATE T x SET BUDGET = 0 WHERE x.DNO = 314
    DELETE FROM T x WHERE x.DNO = 314

DDL::

    CREATE [VERSIONED] TABLE/LIST name (...)  -- body per repro.model.ddl
    CREATE [TEXT] INDEX name ON T (PROJECTS.MEMBERS.FUNCTION)
    DROP TABLE name / DROP INDEX name
"""

from __future__ import annotations

import datetime
from typing import Optional

from repro.errors import ParseError
from repro.obs.sysviews import SYS_VIEW_NAMES
from repro.query import ast
from repro.query.lexer import Token, tokenize

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(tokenize(text))
        self.pos = 0

    # -- token plumbing -------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str) -> ParseError:
        token = self.current
        context = f" near {token.text!r}" if token.text else " at end of input"
        return ParseError(f"{message}{context}", position=token.position)

    def at_keyword(self, *words: str) -> bool:
        return self.current.kind == "keyword" and self.current.upper in words

    def accept_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.error(f"expected {word}")
        return self.advance()

    def at_punct(self, text: str) -> bool:
        return self.current.kind == "punct" and self.current.text == text

    def accept_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.advance()
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self.error(f"expected {text!r}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> str:
        if self.current.kind != "ident":
            raise self.error(f"expected {what}")
        return self.advance().text

    def expect_eof(self) -> None:
        if self.current.kind != "eof":
            raise self.error("unexpected trailing input")

    # -- statements -------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self.at_keyword("EXPLAIN"):
            self.advance()
            analyze = self.accept_keyword("ANALYZE")
            target = self.parse_statement()
            if isinstance(target, ast.ExplainStatement):
                raise self.error("EXPLAIN may not be nested")
            return ast.ExplainStatement(target=target, analyze=analyze)
        if self.at_keyword("SELECT"):
            query = self.parse_query()
            self.expect_eof()
            return query
        if self.at_keyword("INSERT"):
            return self.parse_insert()
        if self.at_keyword("UPDATE"):
            return self.parse_update()
        if self.at_keyword("DELETE"):
            return self.parse_delete()
        if self.at_keyword("CREATE"):
            return self.parse_create()
        if self.at_keyword("DROP"):
            return self.parse_drop()
        if self.at_keyword("ALTER"):
            return self.parse_alter()
        raise self.error("expected a statement")

    # -- queries -------------------------------------------------------------------

    def parse_query(self) -> ast.Query:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        select_star = False
        items: list[ast.SelectItem] = []
        if self.accept_punct("*"):
            select_star = True
        else:
            items.append(self.parse_select_item())
            while self.accept_punct(","):
                items.append(self.parse_select_item())
        self.expect_keyword("FROM")
        ranges = [self.parse_range()]
        while self.accept_punct(","):
            ranges.append(self.parse_range())
        where: Optional[ast.Predicate] = None
        if self.accept_keyword("WHERE"):
            where = self.parse_predicate()
        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept_punct(","):
                order_by.append(self.parse_order_item())
        return ast.Query(
            select=tuple(items),
            ranges=tuple(ranges),
            where=where,
            select_star=select_star,
            distinct=distinct,
            order_by=tuple(order_by),
        )

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    def parse_select_item(self) -> ast.SelectItem:
        # IDENT '=' (query|expr) — explicit naming
        if (
            self.current.kind == "ident"
            and self.peek().kind == "punct"
            and self.peek().text == "="
        ):
            alias = self.advance().text
            self.advance()  # '='
            if self.at_punct("(") and self.peek().upper == "SELECT":
                self.expect_punct("(")
                query = self.parse_query()
                self.expect_punct(")")
                return ast.SelectItem(expr=query, alias=alias)
            expr = self.parse_expression()
            return ast.SelectItem(expr=expr, alias=alias)
        expr = self.parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias")
        return ast.SelectItem(expr=expr, alias=alias)

    def parse_range(self) -> ast.Range:
        var = self.expect_ident("tuple variable")
        self.expect_keyword("IN")
        source = self.parse_source()
        return ast.Range(var=var, source=source)

    def parse_source(self) -> ast.Source:
        name = self.expect_ident("table name or path")
        # SYS.<view> — the virtual observability catalog.  Only recognized
        # for the known view names, so an outer range variable that happens
        # to be called SYS can still own ordinary nested-path sources.
        if (
            name.upper() == "SYS"
            and self.at_punct(".")
            and self.peek().kind == "ident"
            and self.peek().text.upper() in SYS_VIEW_NAMES
        ):
            self.advance()  # '.'
            view = self.advance().text.upper()
            asof = self.parse_asof()
            return ast.Source(table=f"SYS.{view}", asof=asof)
        if self.at_punct(".") or self.at_punct("["):
            path = self.parse_path_continuation(name)
            asof = self.parse_asof()
            return ast.Source(path=path, asof=asof)
        asof = self.parse_asof()
        return ast.Source(table=name, asof=asof)

    def parse_asof(self) -> Optional[datetime.date]:
        if not self.accept_keyword("ASOF"):
            return None
        token = self.current
        if token.kind != "string":
            raise self.error("ASOF expects a quoted ISO date, e.g. '1984-01-15'")
        self.advance()
        try:
            return datetime.date.fromisoformat(token.text)
        except ValueError:
            raise ParseError(
                f"invalid ASOF date {token.text!r}", position=token.position
            ) from None

    # -- predicates ---------------------------------------------------------------------

    def parse_predicate(self) -> ast.Predicate:
        return self.parse_or()

    def parse_or(self) -> ast.Predicate:
        operands = [self.parse_and()]
        while self.accept_keyword("OR"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return operands[0]
        return ast.BoolOp(op="OR", operands=tuple(operands))

    def parse_and(self) -> ast.Predicate:
        operands = [self.parse_unary()]
        while self.accept_keyword("AND"):
            operands.append(self.parse_unary())
        if len(operands) == 1:
            return operands[0]
        return ast.BoolOp(op="AND", operands=tuple(operands))

    def parse_unary(self) -> ast.Predicate:
        if self.accept_keyword("NOT"):
            return ast.Not(self.parse_unary())
        if self.at_keyword("EXISTS", "ALL"):
            kind = self.advance().upper
            var = self.expect_ident("tuple variable")
            self.expect_keyword("IN")
            source = self.parse_source()
            self.accept_punct(":")  # optional, the paper just uses layout
            body = self.parse_unary()
            return ast.Quantifier(kind=kind, var=var, source=source, body=body)
        if self.at_punct("(") and self.peek().upper != "SELECT":
            self.expect_punct("(")
            inner = self.parse_predicate()
            self.expect_punct(")")
            return inner
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Predicate:
        left = self.parse_expression()
        if self.accept_keyword("IS"):
            negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return ast.IsNull(subject=left, negated=negated)
        negated = False
        if self.at_keyword("NOT"):
            self.advance()
            self.expect_keyword("CONTAINS")
            negated = True
            return self._finish_contains(left, negated)
        if self.accept_keyword("CONTAINS"):
            return self._finish_contains(left, negated)
        if self.current.kind == "punct" and self.current.text in _COMPARISON_OPS:
            op = self.advance().text
            if op == "!=":
                op = "<>"
            right = self.parse_expression()
            return ast.Comparison(op=op, left=left, right=right)
        raise self.error("expected a comparison operator, CONTAINS, or IS NULL")

    def _finish_contains(self, subject: ast.Expression, negated: bool) -> ast.Contains:
        token = self.current
        if token.kind != "string":
            raise self.error("CONTAINS expects a quoted pattern")
        self.advance()
        return ast.Contains(subject=subject, pattern=token.text, negated=negated)

    # -- expressions ---------------------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        token = self.current
        if token.kind == "int":
            self.advance()
            return ast.Literal(int(token.text))
        if token.kind == "float":
            self.advance()
            return ast.Literal(float(token.text))
        if token.kind == "string":
            self.advance()
            return ast.Literal(token.text)
        if self.at_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if self.at_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)
        if self.at_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if self.at_punct("(") and self.peek().upper == "SELECT":
            self.expect_punct("(")
            query = self.parse_query()
            self.expect_punct(")")
            return query
        if token.kind == "ident":
            name = self.advance().text
            if name.upper() in _AGGREGATES and self.at_punct("("):
                self.expect_punct("(")
                argument = self.parse_expression()
                self.expect_punct(")")
                return ast.Aggregate(function=name.upper(), argument=argument)
            return self.parse_path_continuation(name)
        raise self.error("expected an expression")

    def parse_path_continuation(self, var: str) -> ast.Path:
        steps: list[ast.PathStep] = []
        # subscript directly on the variable: v[1].NAME
        subscript = self.parse_subscript()
        if subscript is not None:
            steps.append(ast.PathStep(name=None, subscript=subscript))
        while self.accept_punct("."):
            # only an attribute name can follow '.', so a keyword is one
            # here (SYS.QUERIES has TEXT, SYS.TABLES has VERSIONED)
            if self.current.kind == "keyword":
                name = self.advance().text
            else:
                name = self.expect_ident("attribute name")
            steps.append(ast.PathStep(name=name, subscript=self.parse_subscript()))
        return ast.Path(var=var, steps=tuple(steps))

    def parse_subscript(self) -> Optional[int]:
        if not self.accept_punct("["):
            return None
        token = self.current
        if token.kind != "int":
            raise self.error("subscripts must be positive integers")
        self.advance()
        index = int(token.text)
        if index < 1:
            raise ParseError(
                "subscripts are 1-based (the paper's x.AUTHORS[1])",
                position=token.position,
            )
        self.expect_punct("]")
        return index

    # -- DML ----------------------------------------------------------------------------------

    def parse_insert(self) -> ast.Statement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        name = self.expect_ident("table name or subtable path")
        if self.at_punct("."):
            # partial insert: INSERT INTO y.MEMBERS FROM ... VALUES (...)
            target = self.parse_path_continuation(name)
            self.expect_keyword("FROM")
            ranges = [self.parse_range()]
            while self.accept_punct(","):
                ranges.append(self.parse_range())
            where = None
            if self.accept_keyword("WHERE"):
                where = self.parse_predicate()
            self.expect_keyword("VALUES")
            rows = [self.parse_tuple_literal()]
            while self.accept_punct(","):
                rows.append(self.parse_tuple_literal())
            self.expect_eof()
            return ast.SubInsertStatement(
                target=target, ranges=tuple(ranges), rows=tuple(rows), where=where
            )
        table = name
        self.expect_keyword("VALUES")
        rows = [self.parse_tuple_literal()]
        while self.accept_punct(","):
            rows.append(self.parse_tuple_literal())
        self.expect_eof()
        return ast.InsertStatement(table=table, rows=tuple(rows))

    def parse_tuple_literal(self) -> ast.TupleLiteral:
        self.expect_punct("(")
        values = [self.parse_value_literal()]
        while self.accept_punct(","):
            values.append(self.parse_value_literal())
        self.expect_punct(")")
        return ast.TupleLiteral(values=tuple(values))

    def parse_value_literal(self) -> ast.ValueLiteral:
        if self.at_punct("{") or self.at_punct("<"):
            ordered = self.current.text == "<"
            closer = "}" if not ordered else ">"
            self.advance()
            rows: list[ast.TupleLiteral] = []
            if not self.at_punct(closer):
                rows.append(self.parse_tuple_literal())
                while self.accept_punct(","):
                    rows.append(self.parse_tuple_literal())
            self.expect_punct(closer)
            return ast.TableLiteral(rows=tuple(rows), ordered=ordered)
        negative = self.accept_punct("-")
        token = self.current
        if token.kind == "int":
            self.advance()
            return ast.Literal(-int(token.text) if negative else int(token.text))
        if token.kind == "float":
            self.advance()
            return ast.Literal(-float(token.text) if negative else float(token.text))
        if negative:
            raise self.error("expected a number after '-'")
        if token.kind == "string":
            self.advance()
            return ast.Literal(token.text)
        if self.at_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if self.at_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)
        if self.at_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        raise self.error("expected a value literal")

    def parse_update(self) -> ast.Statement:
        self.expect_keyword("UPDATE")
        first = self.expect_ident("table name or target variable")
        if self.at_keyword("FROM"):
            # partial update: UPDATE z FROM <ranges> SET ... [WHERE ...]
            self.advance()
            ranges = [self.parse_range()]
            while self.accept_punct(","):
                ranges.append(self.parse_range())
            self.expect_keyword("SET")
            assignments = [self.parse_assignment(first)]
            while self.accept_punct(","):
                assignments.append(self.parse_assignment(first))
            where = None
            if self.accept_keyword("WHERE"):
                where = self.parse_predicate()
            self.expect_eof()
            return ast.SubUpdateStatement(
                var=first, ranges=tuple(ranges),
                assignments=tuple(assignments), where=where,
            )
        table = first
        var = self.expect_ident("tuple variable")
        self.expect_keyword("SET")
        assignments = [self.parse_assignment(var)]
        while self.accept_punct(","):
            assignments.append(self.parse_assignment(var))
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_predicate()
        self.expect_eof()
        return ast.UpdateStatement(
            table=table, var=var, assignments=tuple(assignments), where=where
        )

    def parse_assignment(self, var: str) -> tuple[str, ast.Expression]:
        name = self.expect_ident("attribute name")
        # allow 'x.BUDGET = ...' as well as 'BUDGET = ...'
        if name == var and self.accept_punct("."):
            name = self.expect_ident("attribute name")
        self.expect_punct("=")
        return name, self.parse_expression()

    def parse_delete(self) -> ast.Statement:
        self.expect_keyword("DELETE")
        if self.current.kind == "ident":
            # partial delete: DELETE z FROM <ranges> [WHERE ...]
            var = self.advance().text
            self.expect_keyword("FROM")
            ranges = [self.parse_range()]
            while self.accept_punct(","):
                ranges.append(self.parse_range())
            where = None
            if self.accept_keyword("WHERE"):
                where = self.parse_predicate()
            self.expect_eof()
            return ast.SubDeleteStatement(
                var=var, ranges=tuple(ranges), where=where
            )
        self.expect_keyword("FROM")
        table = self.expect_ident("table name")
        var = "x"
        if self.current.kind == "ident":
            var = self.advance().text
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_predicate()
        self.expect_eof()
        return ast.DeleteStatement(table=table, var=var, where=where)

    # -- DDL ------------------------------------------------------------------------------------

    def parse_create(self) -> ast.Statement:
        start = self.current.position
        self.expect_keyword("CREATE")
        versioned = self.accept_keyword("VERSIONED")
        if self.at_keyword("TABLE", "LIST"):
            # Delegate the body to the model-layer DDL parser on raw text.
            ddl_text = "CREATE " + self.text[self.current.position:]
            # consume the remaining tokens
            while self.current.kind != "eof":
                self.advance()
            return ast.CreateTableStatement(ddl_text=ddl_text, versioned=versioned)
        if versioned:
            raise self.error("VERSIONED applies to CREATE TABLE/LIST only")
        text_index = self.accept_keyword("TEXT")
        self.expect_keyword("INDEX")
        name = self.expect_ident("index name")
        self.expect_keyword("ON")
        table = self.expect_ident("table name")
        self.expect_punct("(")
        path = [self.expect_ident("attribute name")]
        while self.accept_punct("."):
            path.append(self.expect_ident("attribute name"))
        self.expect_punct(")")
        self.expect_eof()
        return ast.CreateIndexStatement(
            name=name, table=table, attribute_path=tuple(path), text=text_index
        )

    def parse_alter(self) -> ast.AlterTableStatement:
        self.expect_keyword("ALTER")
        self.expect_keyword("TABLE")
        table = self.expect_ident("table name")
        if self.accept_keyword("ADD"):
            path = self._parse_dotted_path()
            type_name = self.expect_ident("type name")
            self.expect_eof()
            return ast.AlterTableStatement(
                table=table, action="add", attribute_path=path, payload=type_name
            )
        if self.accept_keyword("DROP"):
            self.expect_keyword("ATTRIBUTE")
            path = self._parse_dotted_path()
            self.expect_eof()
            return ast.AlterTableStatement(
                table=table, action="drop", attribute_path=path
            )
        if self.accept_keyword("RENAME"):
            self.expect_keyword("ATTRIBUTE")
            path = self._parse_dotted_path()
            self.expect_keyword("TO")
            new_name = self.expect_ident("new attribute name")
            self.expect_eof()
            return ast.AlterTableStatement(
                table=table, action="rename", attribute_path=path, payload=new_name
            )
        raise self.error("expected ADD, DROP ATTRIBUTE, or RENAME ATTRIBUTE")

    def _parse_dotted_path(self) -> tuple[str, ...]:
        path = [self.expect_ident("attribute name")]
        while self.accept_punct("."):
            path.append(self.expect_ident("attribute name"))
        return tuple(path)

    def parse_drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            name = self.expect_ident("table name")
            self.expect_eof()
            return ast.DropTableStatement(table=name)
        if self.accept_keyword("INDEX"):
            name = self.expect_ident("index name")
            self.expect_eof()
            return ast.DropIndexStatement(name=name)
        raise self.error("expected DROP TABLE or DROP INDEX")


def parse_statement(text: str) -> ast.Statement:
    """Parse any statement (query, DML, or DDL)."""
    return _Parser(text).parse_statement()


def parse_query(text: str) -> ast.Query:
    """Parse a SELECT query."""
    parser = _Parser(text)
    query = parser.parse_query()
    parser.expect_eof()
    return query
