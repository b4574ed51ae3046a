"""Bounded columns stored narrow: the same answers, at spec-safe widths.

``repro.tpch.schema`` stores small-domain string codes, dates and
spec-bounded integers at the narrowest signed width that holds their
domain, and the catalog stores every join index as int32 row ids.
These tests check three things:

- every narrowed width holds its column's spec domain at any scale
  factor, and no decimal or key column narrows;
- the 22 TPC-H texts and the 24 ``bench/sql_adhoc.sql`` statements
  (rendered at seeds 1 and 5) give bit-identical results on the host,
  on serial morsels and on the device, over the narrow catalog and
  over a copy of it widened to each kind's default width;
- a compare, IN or BETWEEN whose literal lies outside the stored range
  answers as it does on the widened values, on all three paths.
"""

import datetime
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.engine import Engine, MorselConfig
from repro.sqlir import plan_sql
from repro.sqlir.expr import Kind
from repro.storage import Catalog, Column, Table
from repro.storage.catalog import ROWID, join_index_name
from repro.storage.types import DEFAULT_TYPES, TypeKind, date_to_days
from repro.tpch import schema

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
from workloads import SQL_FILE, render_sql  # noqa: E402

sys.path.remove(str(BENCH))


def widened(catalog: Catalog) -> Catalog:
    """``catalog`` with every column at its kind's default width: the
    layout before bounded columns were narrowed.  Heaps are shared."""
    out = Catalog(
        scale_factor=catalog.scale_factor,
        seed=catalog.seed,
        constant_tables=set(catalog.constant_tables),
    )
    for name in catalog.table_names():
        columns = []
        for col in catalog.table(name).columns:
            ctype = DEFAULT_TYPES[col.ctype.kind]
            columns.append(Column(
                col.name, ctype, col.values.astype(ctype.dtype), col.heap
            ))
        out.add_table(Table(name, columns), catalog.primary_key(name))
    out.foreign_keys = list(catalog.foreign_keys)
    return out


# -- widths against the spec -------------------------------------------------

_DAYS = (date_to_days(schema.START_DATE), date_to_days(schema.END_DATE))


def _values(n: int) -> tuple[int, int]:
    """The code range of a string column with ``n`` distinct values."""
    return 0, n - 1


# Every narrowed column's spec domain, as an inclusive value range.
DOMAINS = {
    "c_mktsegment": _values(len(schema.MKT_SEGMENTS)),
    "p_mfgr": _values(schema.MANUFACTURERS),
    "p_brand": _values(
        schema.MANUFACTURERS * schema.BRANDS_PER_MANUFACTURER
    ),
    "p_type": _values(
        len(schema.TYPE_SYLLABLE_1) * len(schema.TYPE_SYLLABLE_2)
        * len(schema.TYPE_SYLLABLE_3)
    ),
    "p_size": schema.P_SIZES,
    "p_container": _values(
        len(schema.CONTAINER_SYLLABLE_1) * len(schema.CONTAINER_SYLLABLE_2)
    ),
    "ps_availqty": schema.AVAIL_QTYS,
    "o_orderstatus": _values(len(schema.ORDER_STATUSES)),
    "o_orderdate": _DAYS,
    "o_orderpriority": _values(len(schema.ORDER_PRIORITIES)),
    "o_shippriority": schema.SHIP_PRIORITIES,
    "l_linenumber": schema.LINES_PER_ORDER,
    "l_returnflag": _values(len(schema.RETURN_FLAGS)),
    "l_linestatus": _values(len(schema.LINE_STATUSES)),
    "l_shipdate": _DAYS,
    "l_commitdate": _DAYS,
    "l_receiptdate": _DAYS,
    "l_shipinstruct": _values(len(schema.SHIP_INSTRUCTS)),
    "l_shipmode": _values(len(schema.SHIP_MODES)),
}


def _spec_columns():
    for spec in schema.TPCH_TABLES:
        for name, ctype in spec.columns:
            yield spec, name, ctype


def _narrowed() -> dict:
    return {
        name: ctype for _, name, ctype in _spec_columns()
        if ctype != DEFAULT_TYPES[ctype.kind]
    }


class TestSchemaWidths:
    def test_every_narrowed_column_has_a_domain(self):
        assert sorted(_narrowed()) == sorted(DOMAINS)

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_width_holds_the_domain(self, name):
        info = np.iinfo(_narrowed()[name].dtype)
        lo, hi = DOMAINS[name]
        assert info.min <= lo <= hi <= info.max

    def test_dates_are_epoch_days_that_fit_int16(self):
        assert _DAYS == (8035, 10591)

    def test_decimals_and_keys_keep_their_width(self):
        keys = {spec.primary_key for spec in schema.TPCH_TABLES}
        keys |= {fk[1] for fk in schema.FOREIGN_KEYS}
        keys |= {"ps_partkey", "ps_suppkey", "l_orderkey"}
        for _, name, ctype in _spec_columns():
            if ctype.kind is TypeKind.DECIMAL or name in keys:
                assert ctype == DEFAULT_TYPES[ctype.kind], name

    def test_row_ids_hold_every_referenced_table_at_sf_1000(self):
        biggest = max(
            schema.table_cardinality(ref, 1000)
            for _, _, ref, _ in schema.FOREIGN_KEYS
        )
        assert biggest == 1_500_000_000
        assert biggest - 1 <= np.iinfo(ROWID.dtype).max

    def test_generated_catalog_is_stored_as_declared(self, small_db):
        for spec, name, ctype in _spec_columns():
            column = small_db.table(spec.name).column(name)
            assert column.ctype == ctype, name
            assert column.values.dtype == ctype.dtype, name
            if name in DOMAINS and ctype.is_string:
                assert column.heap.unique_count <= DOMAINS[name][1] + 1
            elif name in DOMAINS:
                lo, hi = DOMAINS[name]
                assert lo <= column.values.min() <= column.values.max() <= hi
        for fk in small_db.foreign_keys:
            index = small_db.table(fk.table).column(join_index_name(fk.column))
            assert index.ctype == ROWID
            assert index.nbytes == 4 * index.nrows


# -- the same answers -------------------------------------------------------


def _statements() -> dict[str, str]:
    texts = {f"q{n:02d}": tpch.TEXTS[n] for n in sorted(tpch.ALL_QUERIES)}
    for seed in (1, 5):
        for name, sql in render_sql(SQL_FILE.read_text(), seed).items():
            texts[f"{name}@{seed}"] = sql
    return texts


STATEMENTS = _statements()
PATHS = ("host", "serial", "device")


def _run(db: Catalog, sql: str, path: str):
    plan = plan_sql(sql, db)
    if path == "device":
        config = DeviceConfig(scale_ratio=1000.0 / db.scale_factor)
        return AquomanSimulator(db, config).run(plan).relation
    morsels = None if path == "host" else MorselConfig(
        morsel_rows=8192, n_workers=1, worker_backend="serial"
    )
    return Engine(db, morsels=morsels).execute_relation(plan)


def _result(relation) -> dict:
    """Each column's kind, scale and values; strings by value, since
    string codes are stored at their column's width."""
    out = {}
    for name in relation.names:
        arr = relation.column(name)
        values = arr.values
        if arr.kind is Kind.STR:
            out[name] = (arr.kind, tuple(arr.heap.decode_many(values)))
        else:
            out[name] = (arr.kind, arr.scale, values.dtype.str,
                         values.tobytes())
    return out


@pytest.fixture(scope="module")
def wide_db(small_db):
    return widened(small_db)


class TestSameAnswers:
    def test_widened_copy_is_wider(self, small_db, wide_db):
        assert wide_db.nbytes > small_db.nbytes
        column = wide_db.table("lineitem").column("l_shipdate")
        assert column.values.dtype == np.int32

    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    def test_narrow_and_wide_agree_on_every_path(
        self, small_db, wide_db, name
    ):
        sql = STATEMENTS[name]
        expected = _result(_run(wide_db, sql, "host"))
        for path in PATHS:
            for db in (small_db, wide_db):
                got = _result(_run(db, sql, path))
                assert got == expected, (path, db is wide_db)


# -- literals outside the stored range --------------------------------------

_INTS = {
    "l_linenumber": "lineitem",
    "p_size": "part",
    "ps_availqty": "partsupp",
    "o_shippriority": "orders",
}
_DATES = {"l_shipdate": "lineitem", "o_orderdate": "orders"}
_EDGES = [0, 1, 7, 50, 127, 128, 255, 300, 9999, 32767, 32768, 65536,
          70000, 2**31, 2**40]
_ints = st.one_of(st.sampled_from(_EDGES), st.integers(0, 2**40))
_signed = st.one_of(_ints, _ints.map(lambda v: -v))
_dates = st.one_of(
    st.sampled_from([datetime.date(1800, 1, 1), datetime.date(2100, 1, 1),
                     datetime.date(2059, 9, 18), datetime.date(2059, 9, 19),
                     datetime.date(1880, 4, 14), datetime.date(1880, 4, 13),
                     datetime.date(1995, 6, 17)]),
    st.dates(datetime.date(1, 1, 1), datetime.date(9999, 12, 31)),
)
_OPS = {"<": np.less, "<=": np.less_equal, "=": np.equal,
        "<>": np.not_equal, ">": np.greater, ">=": np.greater_equal}


def _sql_value(value) -> str:
    if isinstance(value, datetime.date):
        return f"date '{value.isoformat()}'"
    return str(value)


def _raw(value) -> int:
    return date_to_days(value) if isinstance(value, datetime.date) else value


@st.composite
def predicates(draw):
    """``(table, column, predicate SQL, oracle over int64 values)``."""
    dates = draw(st.booleans())
    column = draw(st.sampled_from(sorted(_DATES if dates else _INTS)))
    table = (_DATES if dates else _INTS)[column]
    value = _dates if dates else _signed
    shape = draw(st.sampled_from(
        ("compare", "between") if dates else ("compare", "between", "in")
    ))
    negated = draw(st.booleans())
    if shape == "compare":
        op = draw(st.sampled_from(sorted(_OPS)))
        lit = draw(value)
        sql = f"{column} {op} {_sql_value(lit)}"
        return table, column, sql, lambda v: _OPS[op](v, _raw(lit))
    if shape == "between":
        lo, hi = draw(value), draw(value)
        sql = (f"{column} {'NOT ' if negated else ''}BETWEEN "
               f"{_sql_value(lo)} AND {_sql_value(hi)}")
        return table, column, sql, lambda v: negated ^ (
            (v >= _raw(lo)) & (v <= _raw(hi))
        )
    # An IN list takes unsigned literals only.
    options = draw(st.lists(_ints, min_size=1, max_size=4))
    sql = (f"{column} {'NOT ' if negated else ''}IN "
           f"({', '.join(map(str, options))})")
    return table, column, sql, lambda v: negated ^ np.isin(
        v, np.array(options, dtype=np.int64)
    )


class TestLiteralsOutsideTheStoredRange:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(predicates())
    def test_every_path_answers_as_the_widened_values(self, tiny_db, case):
        table, column, predicate, oracle = case
        values = tiny_db.table(table).column(column).values
        expected = int(np.count_nonzero(oracle(values.astype(np.int64))))
        sql = f"SELECT count(*) AS n FROM {table} WHERE {predicate}"
        for path in PATHS:
            got = _run(tiny_db, sql, path).column("n").values.tolist()
            assert got == [expected], (path, sql)

    @pytest.mark.parametrize("sql", [
        "SELECT count(*) AS n FROM lineitem"
        " WHERE l_shipdate > date '1800-01-01'",
        "SELECT count(*) AS n FROM lineitem"
        " WHERE l_shipdate < date '2100-01-01'",
        "SELECT count(*) AS n FROM part WHERE p_size NOT IN (300, 70000)",
        "SELECT count(*) AS n FROM part WHERE p_size > -129",
        "SELECT count(*) AS n FROM partsupp"
        " WHERE ps_availqty BETWEEN -70000 AND 70000",
    ])
    def test_a_literal_beyond_the_dtype_keeps_every_row(self, tiny_db, sql):
        table = sql.split(" FROM ")[1].split()[0]
        nrows = tiny_db.table(table).nrows
        for path in PATHS:
            assert _run(tiny_db, sql, path).column("n").values.tolist() == [
                nrows
            ], path
