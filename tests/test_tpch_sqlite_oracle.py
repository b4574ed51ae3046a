"""The 22 TPC-H texts against an oracle that shares no code with us.

The catalog is loaded into stdlib ``sqlite3`` — integers and dates as
INTEGER (dates as epoch days), decimals as REAL of their logical value,
strings as TEXT, an index on every key column — and each query text
runs there after a small dialect rewrite (``DATE 'x'`` → epoch day,
``EXTRACT(YEAR …)`` and ``SUBSTRING … FROM … FOR`` → sqlite functions).
Our host engine's result must equal sqlite's as a sorted multiset of
rows; numbers compare at 1e-9 relative, since sqlite sums decimals in
floating point and we sum them exactly.  Both session catalogs run:
SF 0.001 leaves six queries without a qualifying row, SF 0.01 one (Q18).

Two known differences are strict expected failures, so each turns into
a failure the day it is fixed:

- Q13's ``c_count`` is typed BOOL: a SUM over the outer join's match
  flag keeps the flag's kind, so every non-zero count reads as True.
  Fixing it changes the committed ``tpch_host`` result digest of q13.
- Q17 has no qualifying row at either scale: SQL's SUM over no rows is
  NULL; the engine has no NULL and returns 0.
"""

import datetime
import math
import re
import sqlite3

import pytest

from repro import tpch
from repro.engine import Engine
from repro.storage.types import TypeKind

EPOCH = datetime.date(1970, 1, 1)
REL_TOL = 1e-9


def _sqlite_values(column) -> list:
    kind = column.ctype.kind
    if kind is TypeKind.CHAR:
        return column.logical()
    if kind is TypeKind.DECIMAL:
        return (column.values / 100).tolist()
    return column.values.tolist()   # integers; dates as epoch days


KNOWN = {
    13: "c_count is typed BOOL (SUM over the match flag keeps its kind)",
    17: "SUM over no rows: NULL in SQL, 0 here (no NULL)",
}


@pytest.fixture(scope="module", params=["tiny_db", "small_db"])
def catalog(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(scope="module")
def oracle(catalog):
    con = sqlite3.connect(":memory:")
    con.execute("PRAGMA case_sensitive_like = ON")
    for table in catalog.tables.values():
        names = [c.name for c in table.columns if "@" not in c.name]
        con.execute(f"CREATE TABLE {table.name} ({', '.join(names)})")
        rows = zip(*(_sqlite_values(table.column(n)) for n in names))
        marks = ", ".join("?" * len(names))
        con.executemany(f"INSERT INTO {table.name} VALUES ({marks})", rows)
        for name in names:
            if name.endswith("key"):
                con.execute(f"CREATE INDEX ix_{name} ON {table.name}"
                            f"({name})")
    yield con
    con.close()


def to_sqlite(sql: str) -> str:
    """Our dialect → sqlite's: dates as epoch days, EXTRACT and
    SUBSTRING as sqlite functions."""
    sql = re.sub(
        r"date '(\d{4}-\d\d-\d\d)'",
        lambda m: str(
            (datetime.date.fromisoformat(m.group(1)) - EPOCH).days
        ),
        sql,
    )
    sql = re.sub(
        r"extract\(year FROM (\w+)\)",
        r"CAST(strftime('%Y', \1 * 86400, 'unixepoch') AS INTEGER)",
        sql,
    )
    return re.sub(r"substring\((\w+) FROM (\d+) FOR (\d+)\)",
                  r"substr(\1, \2, \3)", sql)


def _normal(value):
    if isinstance(value, datetime.date):
        return (value - EPOCH).days
    if isinstance(value, bool):
        return int(value)
    return value


def _sort_key(row):
    # Exact values order the rows; numbers at 6 significant digits, so
    # floating-point noise cannot reorder them.
    return [
        (1, f"{v:.6g}") if isinstance(v, float) else (0, repr(v))
        for v in row
    ]


def _rows_match(ours: list, theirs: list) -> str | None:
    if len(ours) != len(theirs):
        return f"{len(ours)} rows, sqlite has {len(theirs)}"
    for mine, other in zip(sorted(ours, key=_sort_key),
                           sorted(theirs, key=_sort_key)):
        for a, b in zip(mine, other, strict=True):
            numbers = all(isinstance(v, (int, float)) for v in (a, b))
            same = math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9) \
                if numbers else a == b
            if not same:
                return f"row {mine} != sqlite {other}"
    return None


@pytest.mark.parametrize("number", tpch.ALL_QUERIES)
def test_query_matches_sqlite(catalog, oracle, number, request):
    known = KNOWN.get(number)
    if known:
        request.applymarker(pytest.mark.xfail(reason=known, strict=True))
    ours = [
        tuple(_normal(v) for v in row)
        for row in Engine(catalog).execute(tpch.query(number)).to_rows()
    ]
    theirs = oracle.execute(to_sqlite(tpch.TEXTS[number])).fetchall()
    assert _rows_match(ours, theirs) is None, _rows_match(ours, theirs)
