"""The SQL lexer, as a property: any token sequence, any spacing.

Token sequences are drawn from every token class — numbers (integers
and decimals), strings with ``''`` escapes, every operator, names and
keywords in any letter case — and rendered with random whitespace;
the lexer must give back each token's kind, text and position.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlir import SqlSyntaxError
from repro.sqlir.parser import KEYWORDS, tokenize

OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/",
             "(", ")", ",", ".")
WHITESPACE = st.text(st.sampled_from(" \t\n\r\f\v"), min_size=1, max_size=3)
# Characters no token starts with.
STRAY = "@#$%^&?;:[]{}~`\"\\|!"


@st.composite
def keywords(draw):
    word = draw(st.sampled_from(sorted(KEYWORDS)))
    cased = "".join(
        c.upper() if draw(st.booleans()) else c for c in word
    )
    return "keyword", cased, word


@st.composite
def names(draw):
    text = draw(st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,8}", fullmatch=True))
    if text.lower() in KEYWORDS:
        text = "_" + text
    return "name", text, text


@st.composite
def numbers(draw):
    text = str(draw(st.integers(0, 10**25)))
    if draw(st.booleans()):
        text += "." + draw(st.from_regex(r"[0-9]{1,22}", fullmatch=True))
    return "number", text, text


@st.composite
def strings(draw):
    body = draw(st.text(st.sampled_from("ab '%_-.é"), max_size=8))
    text = "'" + body.replace("'", "''") + "'"
    return "string", text, text


@st.composite
def operators(draw):
    text = draw(st.sampled_from(OPERATORS))
    return "op", text, text


TOKENS = st.one_of(keywords(), names(), numbers(), strings(), operators())


@st.composite
def rendered(draw):
    """``(sql, [(kind, text, position), ...])``.  Two tokens touch
    (no whitespace between them) only where they cannot run together:
    exactly one is an operator, and not the ``.`` a decimal swallows."""
    drawn = draw(st.lists(TOKENS, max_size=20))
    sql = draw(st.one_of(st.just(""), WHITESPACE))
    expected = []
    previous = None
    for kind, written, text in drawn:
        if previous is not None:
            may_touch = (
                (previous[0] == "op") != (kind == "op")
                and "." not in (previous[1], written)
            )
            if not may_touch or draw(st.booleans()):
                sql += draw(WHITESPACE)
        expected.append((kind, text, len(sql)))
        sql += written
        previous = (kind, written)
    sql += draw(st.one_of(st.just(""), WHITESPACE))
    return sql, expected


@settings(max_examples=300, deadline=None)
@given(rendered())
def test_every_token_comes_back_with_its_position(case):
    sql, expected = case
    assert tokenize(sql) == expected


def test_every_operator_and_keyword():
    words = sorted(KEYWORDS)
    sql = " ".join(OPERATORS) + " " + " ".join(w.upper() for w in words)
    kinds = [("op", o) for o in OPERATORS] + [("keyword", w) for w in words]
    assert [(k, t) for k, t, _ in tokenize(sql)] == kinds


@settings(max_examples=200, deadline=None)
@given(rendered(), st.sampled_from(STRAY), st.data())
def test_a_stray_character_is_reported_where_it_stands(case, stray, data):
    sql, expected = case
    # Cut between tokens (or at either end) and put the stray there.
    cut = data.draw(st.sampled_from(
        [0, len(sql)] + [position for _, _, position in expected]
    ))
    hostile = sql[:cut] + " " + stray + " " + sql[cut:]
    with pytest.raises(SqlSyntaxError) as raised:
        tokenize(hostile)
    assert str(raised.value) == (
        f"unexpected character {stray!r} at {cut + 1}"
    )


def test_a_lone_quote_is_a_stray_character():
    with pytest.raises(SqlSyntaxError) as raised:
        tokenize("SELECT a 'open")
    assert str(raised.value) == "unexpected character \"'\" at 9"
