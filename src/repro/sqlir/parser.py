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
    Arith,
    ArithOp,
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
    held_by_int64,
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

# One scan: each match skips leading whitespace and takes one token; a
# character no token can start with lands in ``bad``.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<number>\d+\.\d+|\d+)
    | (?P<string>'(?:[^']|'')*')
    | (?P<op><=|>=|<>|!=|[=<>+\-*/(),.])
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)

KEYWORDS = frozenset(
    """select from where group by having order asc desc limit and or not
    like in between as sum avg min max count date case when then else end
    extract year for substring distinct interval day month exists with
    left outer join on""".split()
)

# A token is ``(kind, text, position)``: kind is "number", "string",
# "op", "name" or "keyword"; a keyword's text is lower case.  Keyword
# and operator texts never collide with each other or with another
# kind's text (names that spell a keyword are keywords, strings keep
# their quotes), so the parser tells them apart by text alone.
Token = tuple[str, str, int]


def tokenize(sql: str) -> list[Token]:
    """``sql``'s tokens, in order; a character no token starts with is
    a :class:`SqlSyntaxError` naming it and its position."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(sql):
        kind = match.lastgroup
        text = match[kind]
        position = match.start(kind)
        if kind == "name":
            lowered = text.lower()
            if lowered in KEYWORDS:
                kind, text = "keyword", lowered
        elif kind == "bad":
            raise SqlSyntaxError(
                f"unexpected character {text!r} at {position}"
            )
        append((kind, text, position))
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

# The end of the token stream: a kind and a text no token has, so a
# peek never runs off the list and matches no keyword or operator.
_END = ""

# Binary arithmetic operators: text -> (precedence, operator).
_ARITH = {
    "+": (1, ArithOp.ADD),
    "-": (1, ArithOp.SUB),
    "*": (2, ArithOp.MUL),
    "/": (2, ArithOp.DIV),
}
# Above every binary precedence: parse one operand, take no operator.
_OPERAND = 3


class Parser:
    """Recursive-descent parser over the token stream.

    ``kinds`` and ``texts`` hold the tokens' kinds and texts, each
    closed by :data:`_END`; ``position`` indexes both.
    """

    def __init__(self, sql: str):
        tokens = tokenize(sql)
        self.kinds = [kind for kind, _, _ in tokens]
        self.texts = [text for _, text, _ in tokens]
        self.kinds.append(_END)
        self.texts.append(_END)
        self.position = 0
        self.depth = 0
        self.in_aggregate = False
        self.ctes: dict[str, SelectStatement] = {}

    # -- token plumbing ------------------------------------------------------

    def _got(self) -> str:
        """The current token's text, as an error message names it."""
        return self.texts[self.position] or "end of input"

    def _next(self) -> str:
        """Consume the current token; its text."""
        text = self.texts[self.position]
        if self.kinds[self.position] == _END:
            raise SqlSyntaxError("unexpected end of input")
        self.position += 1
        return text

    def _accept(self, text: str) -> bool:
        """Consume the keyword or operator ``text`` if it is next."""
        if self.texts[self.position] == text:
            self.position += 1
            return True
        return False

    def _expect(self, text: str) -> None:
        if not self._accept(text):
            raise SqlSyntaxError(f"expected {text}, got {self._got()}")

    def _expect_kind(self, kind: str) -> str:
        """Consume a name, number or string token; its text."""
        if self.kinds[self.position] != kind:
            raise SqlSyntaxError(f"expected {kind}, got {self._got()}")
        self.position += 1
        return self.texts[self.position - 1]

    def _at(self, text: str, ahead: int = 0) -> bool:
        return self.texts[self.position + ahead] == text

    def _nested(self, parse: Callable[..., object], *args):
        """``parse(*args)`` one nesting level down (see
        :data:`MAX_NESTING`)."""
        if self.depth >= MAX_NESTING:
            raise SqlSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels"
            )
        self.depth += 1
        try:
            return parse(*args)
        finally:
            self.depth -= 1

    def _integer(self) -> int:
        text = self._expect_kind("number")
        if "." in text:
            raise SqlSyntaxError(f"expected an integer, got {text}")
        return int(text)

    # -- statements -----------------------------------------------------------

    def parse(self) -> SelectStatement:
        if self._accept("with"):
            while True:
                name = self._expect_kind("name")
                self._expect("as")
                self.ctes[name] = self._subquery()
                if not self._accept(","):
                    break
        stmt = self._select()
        if self.kinds[self.position] != _END:
            raise SqlSyntaxError(
                f"trailing input at {self.texts[self.position]!r}"
            )
        return stmt

    def _subquery(self) -> SelectStatement:
        """``( select )``, one nesting level down."""
        self._expect("(")
        outer, self.in_aggregate = self.in_aggregate, False
        stmt = self._nested(self._select)
        self.in_aggregate = outer
        self._expect(")")
        return stmt

    def _select(self) -> SelectStatement:
        self._expect("select")
        if self._accept("*"):
            items: list[SelectItem] = []
        else:
            items = [self._select_item()]
            while self._accept(","):
                items.append(self._select_item())
        self._expect("from")
        tables = self._sources()
        while self._accept(","):
            tables += self._sources()
        stmt = SelectStatement(items, tables)
        if self._accept("where"):
            stmt.where = self._expression()
        if self._accept("group"):
            self._expect("by")
            stmt.group_by.append(self._column())
            while self._accept(","):
                stmt.group_by.append(self._column())
        if self._accept("having"):
            stmt.having = self._expression()
        if self._accept("order"):
            self._expect("by")
            stmt.order_by.append(self._order_item())
            while self._accept(","):
                stmt.order_by.append(self._order_item())
        if self._accept("limit"):
            stmt.limit = self._integer()
        return stmt

    def _order_item(self) -> OrderItem:
        name = self._expect_kind("name")
        if self._accept("desc"):
            return OrderItem(name, ascending=False)
        self._accept("asc")
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
        if self._accept("as"):
            return self._expect_kind("name")
        if self.kinds[self.position] == "name":
            return self._next()
        return default

    def _sources(self) -> list[FromItem]:
        """One FROM entry and the LEFT OUTER JOINs chained onto it."""
        sources = [self._source()]
        while self._accept("left"):
            self._accept("outer")
            self._expect("join")
            joined = self._source()
            self._expect("on")
            joined.outer_on = self._expression()
            sources.append(joined)
        return sources

    def _source(self) -> FromItem:
        if self._at("("):
            query = self._subquery()
            self._accept("as")
            return FromItem(self._expect_kind("name"), query=query)
        name = self._expect_kind("name")
        alias = self._alias(name)
        if name in self.ctes:
            return FromItem(alias, query=self.ctes[name])
        return FromItem(alias, table=name)

    def _column(self) -> Expr:
        name = self._expect_kind("name")
        if self._accept("."):
            return QualifiedRef(name, self._expect_kind("name"))
        return col(name)

    # -- expressions ----------------------------------------------------------
    # Each level peeks at the current token's text once and dispatches
    # on it.  AND and OR chains parse to one n-ary node each, so a WHERE
    # of many terms is one level deep, not one level per term.

    def _expression(self) -> Expr:
        return self._nested(self._or_expr)

    def _or_expr(self) -> Expr:
        terms = [self._and_expr()]
        while self.texts[self.position] == "or":
            self.position += 1
            terms.append(self._and_expr())
        return terms[0] if len(terms) == 1 else BoolExpr(
            BoolOp.OR, tuple(terms)
        )

    def _and_expr(self) -> Expr:
        terms = [self._not_expr()]
        while self.texts[self.position] == "and":
            self.position += 1
            terms.append(self._not_expr())
        return terms[0] if len(terms) == 1 else BoolExpr(
            BoolOp.AND, tuple(terms)
        )

    def _not_expr(self) -> Expr:
        text = self.texts[self.position]
        if text == "not":
            self.position += 1
            if self._accept("exists"):
                return Subquery(self._subquery(), "exists", negated=True)
            return BoolExpr(BoolOp.NOT, (self._nested(self._not_expr),))
        if text == "exists":
            self.position += 1
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
        left = self._arithmetic()
        text = self.texts[self.position]
        op = self._COMPARE_OPS.get(text)
        if op is not None:
            self.position += 1
            return _compare(op, left, self._arithmetic())
        negated = text == "not"
        if negated:
            self.position += 1
            text = self.texts[self.position]
        if text == "between":
            self.position += 1
            low = self._arithmetic()
            self._expect("and")
            high = self._arithmetic()
            between = BoolExpr(
                BoolOp.AND,
                (
                    _compare(CompareOp.GE, left, low),
                    _compare(CompareOp.LE, left, high),
                ),
            )
            if negated:
                return BoolExpr(BoolOp.NOT, (between,))
            return between
        _held(left)
        if text == "like":
            self.position += 1
            return Like(left, self._string_value(), negated=negated)
        if text == "in":
            self.position += 1
            if self._at("(") and self._at("select", 1):
                return Subquery(self._subquery(), "in", left, negated)
            self._expect("(")
            options = [self._literal_value()]
            while self._accept(","):
                options.append(self._literal_value())
            self._expect(")")
            return InList(left, tuple(options), negated=negated)
        if negated:
            raise SqlSyntaxError("NOT must precede LIKE/IN/BETWEEN here")
        return left

    def _arithmetic(self, floor: int = 1) -> Expr:
        """``+ - * /`` by precedence climbing, left-associative; take
        only operators of precedence ``floor`` or higher.  A unary
        minus binds tighter than any of them and is one nesting level.
        """
        if self.texts[self.position] == "-":
            self.position += 1
            left = lit(0) - _held(self._nested(self._arithmetic, _OPERAND))
        else:
            left = self._primary()
        while True:
            binary = _ARITH.get(self.texts[self.position])
            if binary is None or binary[0] < floor:
                return left
            self.position += 1
            precedence, op = binary
            right = self._arithmetic(precedence + 1)
            left = Arith(op, _held(left), _held(right))

    _AGG_WORDS = {
        "sum": AggFunc.SUM,
        "avg": AggFunc.AVG,
        "min": AggFunc.MIN,
        "max": AggFunc.MAX,
        "count": AggFunc.COUNT,
    }

    def _primary(self) -> Expr:
        kind = self.kinds[self.position]
        text = self.texts[self.position]

        if kind == "name":
            return self._column()

        if kind == "number":
            self.position += 1
            return _number(text)

        if kind == "string":
            return lit(self._string_value())

        if text == "(":
            if self._at("select", 1):
                return Subquery(self._subquery())
            self.position += 1
            inner = self._expression()
            self._expect(")")
            return inner

        if kind == "keyword":
            if text in self._AGG_WORDS:
                return self._aggregate()
            if text == "date":
                self.position += 1
                literal = self._string_value()
                try:
                    return lit_date(literal)
                except ValueError as exc:
                    raise SqlSyntaxError(
                        f"bad DATE literal {literal!r} ({exc})"
                    ) from None
            if text == "case":
                return self._case_expr()
            if text == "extract":
                self.position += 1
                self._expect("(")
                self._expect("year")
                self._expect("from")
                inner = self._expression()
                self._expect(")")
                return ExtractYear(inner)
            if text == "substring":
                self.position += 1
                self._expect("(")
                inner = self._expression()
                self._expect("from")
                start = self._integer()
                self._expect("for")
                length = self._integer()
                self._expect(")")
                return Substring(inner, start, length)
            if text == "interval":
                # DATE 'x' - INTERVAL 'n' DAY is folded by the caller;
                # bare intervals evaluate to their day count.
                self.position += 1
                literal = self._string_value()
                try:
                    days = int(literal)
                except ValueError:
                    raise SqlSyntaxError(
                        f"bad INTERVAL literal {literal!r}"
                    ) from None
                self._accept("day")
                return lit(days)
            raise SqlSyntaxError(f"unexpected keyword {text!r}")

        if kind == _END:
            raise SqlSyntaxError("unexpected end of expression")
        raise SqlSyntaxError(f"unexpected token {text!r}")

    def _aggregate(self) -> AggCall:
        func = self._AGG_WORDS[self._next()]
        self._expect("(")
        if func is AggFunc.COUNT and self._accept("*"):
            self._expect(")")
            return AggCall(func)
        if self._accept("distinct"):
            if func is not AggFunc.COUNT:
                raise SqlSyntaxError("DISTINCT is supported in COUNT only")
            func = AggFunc.COUNT_DISTINCT
        if self.in_aggregate:
            raise SqlSyntaxError("aggregates do not nest")
        self.in_aggregate = True
        arg = self._expression()
        self.in_aggregate = False
        self._expect(")")
        return AggCall(func, arg)

    def _case_expr(self) -> Expr:
        self._expect("case")
        self._expect("when")
        condition = self._expression()
        self._expect("then")
        then = self._expression()
        self._expect("else")
        otherwise = self._expression()
        self._expect("end")
        return CaseWhen(condition, then, otherwise)

    def _string_value(self) -> str:
        return self._expect_kind("string")[1:-1].replace("''", "'")

    def _literal_value(self):
        kind = self.kinds[self.position]
        text = self._next()
        if kind == "string":
            return text[1:-1].replace("''", "'")
        if kind == "number":
            if "." in text:
                # Written scale kept: an IN-list option compares as the
                # same literal does under ``=``.
                return _number(text)
            return int(text)
        raise SqlSyntaxError(f"expected a literal, got {text!r}")


def _held(expr: Expr) -> Expr:
    """``expr``, unless it is a numeric literal int64 cannot hold
    (:func:`~repro.sqlir.expr.held_by_int64`).  Such a literal is
    taken only where it is compared — an operand of a comparison or
    BETWEEN whose other side is not a literal, or an IN option — and
    a :class:`SqlSyntaxError` naming it anywhere a value is computed
    from it."""
    if isinstance(expr, Literal) and not held_by_int64(expr):
        raw, scale = int(expr.raw), expr.scale
        digits = str(abs(raw)).rjust(scale + 1, "0")
        if scale:
            digits = f"{digits[:-scale]}.{digits[-scale:]}"
        raise SqlSyntaxError(
            f"numeric literal {'-' * (raw < 0)}{digits} does not fit in "
            "64 bits; only a comparison or an IN list takes it"
        )
    return expr


def _compare(op: CompareOp, left: Expr, right: Expr) -> Compare:
    """``left op right``; of two literals, both must fit (:func:`_held`)."""
    if isinstance(left, Literal) and isinstance(right, Literal):
        _held(left)
        _held(right)
    return Compare(op, left, right)


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
