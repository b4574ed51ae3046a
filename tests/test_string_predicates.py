"""String predicates end to end: host, morsel and device against sqlite.

A small catalog whose string column holds newlines, the LIKE wildcard
characters themselves and multi-byte characters runs the same SQL text
on the host engine, on inline (serial) morsel spans and through the
device simulator.  The three results must be bit-identical, and equal
to stdlib ``sqlite3`` with case-sensitive LIKE.  The table is larger
than two morsels, so the morsel path really streams spans.
"""

import sqlite3

import numpy as np
import pytest

from repro.core import AquomanSimulator, DeviceConfig
from repro.engine import Engine, MorselConfig
from repro.sqlir import plan_sql
from repro.storage import CHAR, INT64, Catalog, Column, Table
from repro.storage.stringheap import StringHeap

STRINGS = [
    "abc", "abc\n", "a\nx", "\n", "", "x", "50%", "50% off", "a_b",
    "aXb", "é", "€uro", "𝄞 clef", "ab%c_d", "line1\nline2", "naïve",
]
ROWS = 20_000

PATTERNS = [
    "abc", "%x", "a_x", "a%x", "%\n%", "\n", "_", "__", "%", "", "50%",
    "50\\%", "%\\%%", "a_b", "%é%", "€%", "_ clef", "line1_line2",
    "line1%line2", "%e", "na_ve", "%_%_%_%", "%%%",
]

PATHS = ("host", "serial", "device")


def _run(db, sql: str, path: str):
    plan = plan_sql(sql, db)
    if path == "device":
        return AquomanSimulator(db, DeviceConfig()).run(plan).relation
    morsels = None if path == "host" else MorselConfig(
        morsel_rows=8192, n_workers=1, worker_backend="serial"
    )
    return Engine(db, morsels=morsels).execute_relation(plan)


def _bits(relation) -> list:
    """Names, kinds, scales, dtypes and value bytes of every column."""
    columns = [(name, relation.column(name)) for name in relation.names]
    return [(name, c.kind, c.scale, c.values.dtype.str, c.values.tobytes())
            for name, c in columns]


@pytest.fixture(scope="module")
def db():
    catalog = Catalog()
    ids = np.arange(ROWS, dtype=np.int64)
    catalog.add_table(Table("t", [
        Column("id", INT64, ids),
        Column.strings("s", [STRINGS[i * 7 % len(STRINGS)] for i in ids]),
    ]))
    return catalog


@pytest.fixture(scope="module")
def oracle(db):
    con = sqlite3.connect(":memory:")
    con.execute("PRAGMA case_sensitive_like = ON")
    assert con.execute("SELECT 'a' LIKE 'A'").fetchone() == (0,)
    table = db.table("t")
    con.execute("CREATE TABLE t (id, s)")
    con.executemany("INSERT INTO t VALUES (?, ?)", zip(
        table.column("id").values.tolist(), table.column("s").logical()
    ))
    yield con
    con.close()


@pytest.mark.parametrize("negated", [False, True], ids=["like", "not_like"])
@pytest.mark.parametrize("pattern", PATTERNS, ids=repr)
def test_like_paths_agree_with_sqlite(db, oracle, pattern, negated):
    op = "NOT LIKE" if negated else "LIKE"
    sql = f"SELECT id FROM t WHERE s {op} '{pattern}' ORDER BY id"
    results = {path: _run(db, sql, path) for path in PATHS}
    assert _bits(results["serial"]) == _bits(results["host"])
    assert _bits(results["device"]) == _bits(results["host"])
    theirs = [row[0] for row in oracle.execute(sql)]
    assert results["host"].column("id").values.tolist() == theirs


def test_device_matches_on_its_accelerator(db):
    sql = "SELECT id FROM t WHERE s LIKE 'a_x' ORDER BY id"
    result = AquomanSimulator(db, DeviceConfig()).run(plan_sql(sql, db))
    assert result.device.regex_accel.patterns_compiled == 1


@pytest.fixture(scope="module")
def empty_db():
    """No rows; ``s``'s heap is empty, ``s2``'s holds a string no row
    uses, so the two heaps' string arrays differ only in length."""
    catalog = Catalog()
    catalog.add_table(Table("t", [
        Column("id", INT64, np.empty(0, dtype=np.int64)),
        Column.strings("s", []),
        Column("s2", CHAR, np.empty(0, dtype=np.int32),
               StringHeap.from_values(["m"])[0]),
    ]))
    return catalog


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("sql", [
    "SELECT count(*) AS n FROM t WHERE s < 'm'",
    "SELECT count(*) AS n FROM t WHERE 'm' <= s",
    "SELECT count(*) AS n FROM t WHERE s < s2",
], ids=["column_first", "literal_first", "two_heaps"])
def test_ordered_compare_on_an_empty_heap(empty_db, sql, path):
    relation = _run(empty_db, sql, path)
    assert relation.column("n").values.tolist() == [0]


@pytest.mark.parametrize("path", PATHS)
def test_sort_on_an_empty_heap(empty_db, path):
    relation = _run(empty_db, "SELECT s FROM t ORDER BY s", path)
    assert relation.nrows == 0
