"""A SQL front-end for the analytic subset AQUOMAN targets.

Parses one statement of this grammar into a small AST that
:mod:`repro.sqlir.planner` turns into logical plans::

    statement := [WITH name AS (select) {, name AS (select)}] select
    select    := SELECT item {, item} FROM source {, source}
                 [WHERE expr] [GROUP BY column {, column}] [HAVING expr]
                 [ORDER BY name [ASC|DESC] {, ...}] [LIMIT integer]
    item      := * | expr [AS name]
    source    := table [[AS] alias] | (select) [AS] alias
                 {LEFT [OUTER] JOIN table [[AS] alias] ON expr}
    column    := name | alias.name

Expressions: arithmetic, comparisons, AND/OR/NOT, BETWEEN, [NOT] LIKE,
[NOT] IN (literals), [NOT] IN (select), [NOT] EXISTS (select), scalar
(select) subqueries, CASE WHEN, EXTRACT(YEAR FROM x),
SUBSTRING(x FROM a FOR b), DATE 'YYYY-MM-DD' literals, INTERVAL 'n'
DAY, and the aggregates SUM/AVG/MIN/MAX/COUNT(*)/COUNT([DISTINCT] x)
anywhere in a select item or HAVING.  That is every construct of the
22 TPC-H query texts; interval arithmetic on dates is written as the
folded literal date.

A qualified column ``alias.name`` is kept qualified
(:class:`QualifiedRef`): a self-join (``nation n1, nation n2``) or a
correlated subquery over the outer query's table needs the alias to
tell its two bindings apart.  No DDL, no NULL literals, no UNION: those
arrive at AQUOMAN as already-planned trees in the paper's stack too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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
    Kind,
    Like,
    Literal,
    Substring,
    col,
    lit,
    lit_date,
)


class SqlSyntaxError(Exception):
    """The input is not in the supported SQL subset."""


# Parenthesised, CASE, NOT, unary-minus and subquery levels one
# expression may nest.  Every level costs the recursive descent ~10
# Python frames, so the limit keeps hostile input a syntax error instead
# of a RecursionError, with room to spare for the deepest real query.
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
    extract year for substring distinct interval day month exists with
    left outer join on""".split()
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
# Front-end-only expression nodes: the planner replaces each of them
# with plan IR (a column, a join, a ScalarSubquery) before any executor
# sees the tree.


@dataclass(eq=False)
class QualifiedRef(Expr):
    """``qualifier.name``: a column of one FROM binding."""

    qualifier: str
    name: str

    def __repr__(self) -> str:
        return f"col({self.qualifier}.{self.name})"


@dataclass(eq=False)
class AggCall(Expr):
    """An aggregate call; ``arg`` is None for COUNT(*)."""

    func: AggFunc
    arg: Expr | None = None

    def children(self):
        return () if self.arg is None else (self.arg,)

    def __repr__(self) -> str:
        return f"{self.func.value}({self.arg!r})"


@dataclass(eq=False)
class Subquery(Expr):
    """A nested SELECT: ``kind`` is "scalar", "exists" or "in"
    (``operand IN (query)``); ``negated`` for NOT EXISTS / NOT IN."""

    query: "SelectStatement"
    kind: str = "scalar"
    operand: Expr | None = None
    negated: bool = False

    def children(self):
        return () if self.operand is None else (self.operand,)

    def __repr__(self) -> str:
        neg = "not " if self.negated else ""
        return f"{neg}{self.kind}(subquery)"


@dataclass
class SelectItem:
    expr: Expr          # may contain AggCall nodes
    alias: str


@dataclass
class OrderItem:
    column: str
    ascending: bool = True


@dataclass
class FromItem:
    """One FROM binding: a base table or a derived table (``query``).
    ``outer_on`` marks ``LEFT OUTER JOIN this ON outer_on``."""

    alias: str
    table: str | None = None
    query: "SelectStatement | None" = None
    outer_on: Expr | None = None


@dataclass
class SelectStatement:
    items: list[SelectItem]             # empty for SELECT *
    tables: list[FromItem]
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, sql: str):
        self.tokens = tokenize(sql)
        self.position = 0
        self.depth = 0
        self.in_aggregate = False
        self.ctes: dict[str, SelectStatement] = {}

    # -- token plumbing ------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token | None:
        try:
            return self.tokens[self.position + ahead]
        except IndexError:
            return None

    def _next(self) -> Token:
        try:
            token = self.tokens[self.position]
        except IndexError:
            raise SqlSyntaxError("unexpected end of input") from None
        self.position += 1
        return token

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        try:
            token = self.tokens[self.position]
        except IndexError:
            return None
        if token.kind != kind or text is not None and token.text != text:
            return None
        self.position += 1
        return token

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

    def _nested(self, parse: Callable[[], object]):
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

    # -- statements -----------------------------------------------------------

    def parse(self) -> SelectStatement:
        if self._keyword("with"):
            while True:
                name = self._expect("name").text
                self._expect("keyword", "as")
                self.ctes[name] = self._subquery()
                if not self._accept("op", ","):
                    break
        stmt = self._select()
        if self._peek() is not None:
            raise SqlSyntaxError(
                f"trailing input at {self._peek().text!r}"
            )
        return stmt

    def _subquery(self) -> SelectStatement:
        """``( select )``, one nesting level down."""
        self._expect("op", "(")
        outer, self.in_aggregate = self.in_aggregate, False
        stmt = self._nested(self._select)
        self.in_aggregate = outer
        self._expect("op", ")")
        return stmt

    def _select(self) -> SelectStatement:
        self._expect("keyword", "select")
        if self._accept("op", "*"):
            items: list[SelectItem] = []
        else:
            items = [self._select_item()]
            while self._accept("op", ","):
                items.append(self._select_item())
        self._expect("keyword", "from")
        tables = self._sources()
        while self._accept("op", ","):
            tables += self._sources()
        stmt = SelectStatement(items, tables)
        if self._keyword("where"):
            stmt.where = self._expression()
        if self._keyword("group"):
            self._expect("keyword", "by")
            stmt.group_by.append(self._column())
            while self._accept("op", ","):
                stmt.group_by.append(self._column())
        if self._keyword("having"):
            stmt.having = self._expression()
        if self._keyword("order"):
            self._expect("keyword", "by")
            stmt.order_by.append(self._order_item())
            while self._accept("op", ","):
                stmt.order_by.append(self._order_item())
        if self._keyword("limit"):
            stmt.limit = self._integer()
        return stmt

    def _order_item(self) -> OrderItem:
        name = self._expect("name").text
        if self._keyword("desc"):
            return OrderItem(name, ascending=False)
        self._keyword("asc")
        return OrderItem(name)

    def _select_item(self) -> SelectItem:
        expr = self._expression()
        if isinstance(expr, AggCall):
            default = expr.func.value.split("_")[0]
        elif isinstance(expr, (ColumnRef, QualifiedRef)):
            default = expr.name
        else:
            default = "expr"
        return SelectItem(expr, self._alias(default))

    def _alias(self, default: str) -> str:
        if self._keyword("as"):
            return self._expect("name").text
        token = self._peek()
        if token is not None and token.kind == "name":
            return self._next().text
        return default

    def _sources(self) -> list[FromItem]:
        """One FROM entry and the LEFT OUTER JOINs chained onto it."""
        sources = [self._source()]
        while self._keyword("left"):
            self._keyword("outer")
            self._expect("keyword", "join")
            joined = self._source()
            self._expect("keyword", "on")
            joined.outer_on = self._expression()
            sources.append(joined)
        return sources

    def _at(self, text: str, ahead: int = 0) -> bool:
        token = self._peek(ahead)
        return token is not None and token.text == text

    def _source(self) -> FromItem:
        if self._at("("):
            query = self._subquery()
            self._keyword("as")
            return FromItem(self._expect("name").text, query=query)
        name = self._expect("name").text
        alias = self._alias(name)
        if name in self.ctes:
            return FromItem(alias, query=self.ctes[name])
        return FromItem(alias, table=name)

    def _column(self) -> Expr:
        name = self._expect("name").text
        if self._accept("op", "."):
            return QualifiedRef(name, self._expect("name").text)
        return col(name)

    # -- expressions (precedence climbing) -------------------------------------
    # AND and OR chains parse to one n-ary node each, so a WHERE of many
    # terms is one level deep, not one level per term.

    def _expression(self) -> Expr:
        return self._nested(self._or_expr)

    def _or_expr(self) -> Expr:
        terms = [self._and_expr()]
        while self._keyword("or"):
            terms.append(self._and_expr())
        return terms[0] if len(terms) == 1 else BoolExpr(
            BoolOp.OR, tuple(terms)
        )

    def _and_expr(self) -> Expr:
        terms = [self._not_expr()]
        while self._keyword("and"):
            terms.append(self._not_expr())
        return terms[0] if len(terms) == 1 else BoolExpr(
            BoolOp.AND, tuple(terms)
        )

    def _not_expr(self) -> Expr:
        token = self._peek()
        if token is not None and token.kind == "keyword":
            if token.text == "not":
                self._next()
                if self._keyword("exists"):
                    return Subquery(self._subquery(), "exists",
                                    negated=True)
                return BoolExpr(BoolOp.NOT, (self._nested(self._not_expr),))
            if token.text == "exists":
                self._next()
                return Subquery(self._subquery(), "exists")
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
            if self._at("(") and self._at("select", 1):
                return Subquery(self._subquery(), "in", left, negated)
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

    _AGG_WORDS = {
        "sum": AggFunc.SUM,
        "avg": AggFunc.AVG,
        "min": AggFunc.MIN,
        "max": AggFunc.MAX,
        "count": AggFunc.COUNT,
    }

    def _primary(self) -> Expr:
        token = self._peek()
        if token is None:
            raise SqlSyntaxError("unexpected end of expression")

        if token.kind == "op" and token.text == "(":
            if self._at("select", 1):
                return Subquery(self._subquery())
            self._next()
            inner = self._expression()
            self._expect("op", ")")
            return inner

        if token.kind == "number":
            self._next()
            return _number(token.text)

        if token.kind == "string":
            return lit(self._string_value())

        if token.kind == "keyword":
            if token.text in self._AGG_WORDS:
                return self._aggregate()
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
            return self._column()

        raise SqlSyntaxError(f"unexpected token {token.text!r}")

    def _aggregate(self) -> AggCall:
        func = self._AGG_WORDS[self._next().text]
        self._expect("op", "(")
        if func is AggFunc.COUNT and self._accept("op", "*"):
            self._expect("op", ")")
            return AggCall(func)
        if self._keyword("distinct"):
            if func is not AggFunc.COUNT:
                raise SqlSyntaxError("DISTINCT is supported in COUNT only")
            func = AggFunc.COUNT_DISTINCT
        if self.in_aggregate:
            raise SqlSyntaxError("aggregates do not nest")
        self.in_aggregate = True
        arg = self._expression()
        self.in_aggregate = False
        self._expect("op", ")")
        return AggCall(func, arg)

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
                # Written scale kept: an IN-list option compares as the
                # same literal does under ``=``.
                return _number(token.text)
            return int(token.text)
        raise SqlSyntaxError(f"expected a literal, got {token.text!r}")


def _number(text: str) -> Literal:
    """A numeric literal: an integer, or a decimal at its written scale
    (two digits at least), read from its digits exactly."""
    if "." in text:
        digits = len(text.split(".")[1])
        raw = int(text.replace(".", "")) * 10 ** max(0, 2 - digits)
        return Literal(raw, Kind.INT, max(digits, 2))
    return lit(int(text))


def parse_sql(sql: str) -> SelectStatement:
    """Parse one statement of the supported subset."""
    return Parser(sql.rstrip().rstrip(";")).parse()
