"""A SQL front-end for the analytic subset AQUOMAN targets.

Parses ``SELECT ... FROM ... [WHERE] [GROUP BY] [HAVING] [ORDER BY]
[LIMIT]`` — the shape of every TPC-H query body — into a small AST that
:mod:`repro.sqlir.planner` turns into logical plans.  Supported
expression forms: arithmetic, comparisons, AND/OR/NOT, BETWEEN,
[NOT] LIKE, [NOT] IN, CASE WHEN, EXTRACT(YEAR FROM x),
SUBSTRING(x FROM a FOR b), DATE 'YYYY-MM-DD' literals, and the
aggregates SUM/AVG/MIN/MAX/COUNT(*)/COUNT(x).

The grammar is deliberately the analytics subset: no subqueries in
FROM, no outer-join syntax, no DDL — those arrive at AQUOMAN as
already-planned trees in the paper's stack too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.sqlir.expr import (
    AggFunc,
    BoolExpr,
    BoolOp,
    CaseWhen,
    ColumnRef,
    Compare,
    CompareOp,
    Expr,
    ExtractYear,
    InList,
    Like,
    Literal,
    Substring,
    col,
    lit,
    lit_date,
    lit_decimal,
)


class SqlSyntaxError(Exception):
    """The input is not in the supported SQL subset."""


# Parenthesised, CASE, NOT and unary-minus levels one expression may
# nest.  Every level costs the recursive descent ~10 Python frames, so
# the limit keeps hostile input a syntax error instead of a
# RecursionError, with room to spare for the deepest real query.
MAX_NESTING = 64


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><=|>=|<>|!=|=|<|>|\+|-|\*|/|\(|\)|,|\.)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

KEYWORDS = frozenset(
    """select from where group by having order asc desc limit and or not
    like in between as sum avg min max count date case when then else end
    extract year for substring distinct interval day month""".split()
)


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "string" | "op" | "name" | "keyword"
    text: str
    position: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise SqlSyntaxError(
                f"unexpected character {sql[position]!r} at {position}"
            )
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        text = match.group()
        if kind == "name" and text.lower() in KEYWORDS:
            tokens.append(Token("keyword", text.lower(), match.start()))
        else:
            tokens.append(Token(kind, text, match.start()))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass
class SelectItem:
    expr: Expr | None          # None for the aggregate-call case below
    alias: str
    aggregate: AggFunc | None = None
    aggregate_arg: Expr | None = None
    distinct: bool = False


@dataclass
class OrderItem:
    column: str
    ascending: bool = True


@dataclass
class SelectStatement:
    items: list[SelectItem]
    tables: list[tuple[str, str]]       # (table, alias)
    where: Expr | None
    group_by: list[str]
    having: Expr | None
    order_by: list[OrderItem]
    limit: int | None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, sql: str):
        self.tokens = tokenize(sql)
        self.position = 0
        self.depth = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> Token | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise SqlSyntaxError("unexpected end of input")
        self.position += 1
        return token

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        token = self._peek()
        if token is None or token.kind != kind:
            return None
        if text is not None and token.text != text:
            return None
        return self._next()

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._accept(kind, text)
        if token is None:
            got = self._peek()
            raise SqlSyntaxError(
                f"expected {text or kind}, got "
                f"{got.text if got else 'end of input'}"
            )
        return token

    def _keyword(self, word: str) -> bool:
        return self._accept("keyword", word) is not None

    def _nested(self, parse: Callable[[], Expr]) -> Expr:
        """``parse()`` one nesting level down (see :data:`MAX_NESTING`)."""
        if self.depth >= MAX_NESTING:
            raise SqlSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels"
            )
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def _integer(self) -> int:
        token = self._expect("number")
        if "." in token.text:
            raise SqlSyntaxError(f"expected an integer, got {token.text}")
        return int(token.text)

    # -- statement ------------------------------------------------------------

    def parse(self) -> SelectStatement:
        self._expect("keyword", "select")
        items = self._select_items()
        self._expect("keyword", "from")
        tables = self._table_list()
        where = self._expression() if self._keyword("where") else None

        group_by: list[str] = []
        if self._keyword("group"):
            self._expect("keyword", "by")
            group_by.append(self._expect("name").text)
            while self._accept("op", ","):
                group_by.append(self._expect("name").text)

        having = self._expression() if self._keyword("having") else None

        order_by: list[OrderItem] = []
        if self._keyword("order"):
            self._expect("keyword", "by")
            order_by.append(self._order_item())
            while self._accept("op", ","):
                order_by.append(self._order_item())

        limit = None
        if self._keyword("limit"):
            limit = self._integer()

        if self._peek() is not None:
            raise SqlSyntaxError(
                f"trailing input at {self._peek().text!r}"
            )
        return SelectStatement(
            items, tables, where, group_by, having, order_by, limit
        )

    def _order_item(self) -> OrderItem:
        name = self._expect("name").text
        if self._keyword("desc"):
            return OrderItem(name, ascending=False)
        self._keyword("asc")
        return OrderItem(name)

    def _select_items(self) -> list[SelectItem]:
        items = [self._select_item()]
        while self._accept("op", ","):
            items.append(self._select_item())
        return items

    _AGG_WORDS = {
        "sum": AggFunc.SUM,
        "avg": AggFunc.AVG,
        "min": AggFunc.MIN,
        "max": AggFunc.MAX,
    }

    def _select_item(self) -> SelectItem:
        token = self._peek()
        if token is not None and token.kind == "keyword":
            if token.text in self._AGG_WORDS:
                func = self._AGG_WORDS[self._next().text]
                self._expect("op", "(")
                distinct = self._keyword("distinct")
                arg = self._expression()
                self._expect("op", ")")
                alias = self._alias(default=f"{func.value}")
                return SelectItem(
                    None, alias, aggregate=func, aggregate_arg=arg,
                    distinct=distinct,
                )
            if token.text == "count":
                self._next()
                self._expect("op", "(")
                if self._accept("op", "*"):
                    self._expect("op", ")")
                    alias = self._alias(default="count")
                    return SelectItem(None, alias, aggregate=AggFunc.COUNT)
                distinct = self._keyword("distinct")
                arg = self._expression()
                self._expect("op", ")")
                alias = self._alias(default="count")
                func = (
                    AggFunc.COUNT_DISTINCT if distinct else AggFunc.COUNT
                )
                return SelectItem(
                    None, alias, aggregate=func, aggregate_arg=arg
                )
        expr = self._expression()
        default = expr.name if isinstance(expr, ColumnRef) else "expr"
        return SelectItem(expr, self._alias(default=default))

    def _alias(self, default: str) -> str:
        if self._keyword("as"):
            return self._expect("name").text
        return default

    def _table_list(self) -> list[tuple[str, str]]:
        tables = [self._table()]
        while self._accept("op", ","):
            tables.append(self._table())
        return tables

    def _table(self) -> tuple[str, str]:
        name = self._expect("name").text
        alias = name
        if self._keyword("as"):
            alias = self._expect("name").text
        else:
            token = self._peek()
            if token is not None and token.kind == "name":
                alias = self._next().text
        return name, alias

    # -- expressions (precedence climbing) -------------------------------------

    def _expression(self) -> Expr:
        return self._nested(self._or_expr)

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._keyword("or"):
            left = BoolExpr(BoolOp.OR, (left, self._and_expr()))
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self._keyword("and"):
            left = BoolExpr(BoolOp.AND, (left, self._not_expr()))
        return left

    def _not_expr(self) -> Expr:
        if self._keyword("not"):
            return BoolExpr(BoolOp.NOT, (self._nested(self._not_expr),))
        return self._predicate()

    _COMPARE_OPS = {
        "=": CompareOp.EQ,
        "<>": CompareOp.NE,
        "!=": CompareOp.NE,
        "<": CompareOp.LT,
        "<=": CompareOp.LE,
        ">": CompareOp.GT,
        ">=": CompareOp.GE,
    }

    def _predicate(self) -> Expr:
        left = self._additive()

        negated = self._keyword("not")
        if self._keyword("like"):
            pattern = self._string_value()
            return Like(left, pattern, negated=negated)
        if self._keyword("in"):
            self._expect("op", "(")
            options = [self._literal_value()]
            while self._accept("op", ","):
                options.append(self._literal_value())
            self._expect("op", ")")
            return InList(left, tuple(options), negated=negated)
        if self._keyword("between"):
            low = self._additive()
            self._expect("keyword", "and")
            high = self._additive()
            between = BoolExpr(
                BoolOp.AND,
                (
                    Compare(CompareOp.GE, left, low),
                    Compare(CompareOp.LE, left, high),
                ),
            )
            if negated:
                return BoolExpr(BoolOp.NOT, (between,))
            return between
        if negated:
            raise SqlSyntaxError("NOT must precede LIKE/IN/BETWEEN here")

        token = self._peek()
        if token is not None and token.kind == "op" and token.text in (
            self._COMPARE_OPS
        ):
            op = self._COMPARE_OPS[self._next().text]
            return Compare(op, left, self._additive())
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while True:
            if self._accept("op", "+"):
                left = left + self._multiplicative()
            elif self._accept("op", "-"):
                left = left - self._multiplicative()
            else:
                return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while True:
            if self._accept("op", "*"):
                left = left * self._unary()
            elif self._accept("op", "/"):
                left = left / self._unary()
            else:
                return left

    def _unary(self) -> Expr:
        if self._accept("op", "-"):
            return lit(0) - self._nested(self._unary)
        return self._primary()

    def _primary(self) -> Expr:
        if self._accept("op", "("):
            inner = self._expression()
            self._expect("op", ")")
            return inner

        token = self._peek()
        if token is None:
            raise SqlSyntaxError("unexpected end of expression")

        if token.kind == "number":
            self._next()
            if "." in token.text:
                digits = len(token.text.split(".")[1])
                return lit_decimal(float(token.text), max(digits, 2))
            return lit(int(token.text))

        if token.kind == "string":
            return lit(self._string_value())

        if token.kind == "keyword":
            if token.text == "date":
                self._next()
                text = self._string_value()
                try:
                    return lit_date(text)
                except ValueError as exc:
                    raise SqlSyntaxError(
                        f"bad DATE literal {text!r} ({exc})"
                    ) from None
            if token.text == "case":
                return self._case_expr()
            if token.text == "extract":
                self._next()
                self._expect("op", "(")
                self._expect("keyword", "year")
                self._expect("keyword", "from")
                inner = self._expression()
                self._expect("op", ")")
                return ExtractYear(inner)
            if token.text == "substring":
                self._next()
                self._expect("op", "(")
                inner = self._expression()
                self._expect("keyword", "from")
                start = self._integer()
                self._expect("keyword", "for")
                length = self._integer()
                self._expect("op", ")")
                return Substring(inner, start, length)
            if token.text == "interval":
                # DATE 'x' - INTERVAL 'n' DAY is folded by the caller;
                # bare intervals evaluate to their day count.
                self._next()
                text = self._string_value()
                try:
                    days = int(text)
                except ValueError:
                    raise SqlSyntaxError(
                        f"bad INTERVAL literal {text!r}"
                    ) from None
                self._keyword("day")
                return lit(days)
            raise SqlSyntaxError(f"unexpected keyword {token.text!r}")

        if token.kind == "name":
            name = self._next().text
            if self._accept("op", "."):
                # alias.column: TPC-H column names are globally unique,
                # so the qualifier only disambiguates self-joins, which
                # this subset does not take; keep the column part.
                name = self._expect("name").text
            return col(name)

        raise SqlSyntaxError(f"unexpected token {token.text!r}")

    def _case_expr(self) -> Expr:
        self._expect("keyword", "case")
        self._expect("keyword", "when")
        condition = self._expression()
        self._expect("keyword", "then")
        then = self._expression()
        self._expect("keyword", "else")
        otherwise = self._expression()
        self._expect("keyword", "end")
        return CaseWhen(condition, then, otherwise)

    def _string_value(self) -> str:
        token = self._expect("string")
        return token.text[1:-1].replace("''", "'")

    def _literal_value(self):
        token = self._next()
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        if token.kind == "number":
            if "." in token.text:
                return float(token.text)
            return int(token.text)
        raise SqlSyntaxError(f"expected a literal, got {token.text!r}")


def parse_sql(sql: str) -> SelectStatement:
    """Parse one SELECT statement of the supported subset."""
    return Parser(sql.rstrip().rstrip(";")).parse()
