"""The software baseline engine: per-operator behaviour on real plans."""

import hashlib

import numpy as np
import pytest

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.engine import MATCH_FLAG, Engine, MorselConfig
from repro.sqlir import AggFunc, JoinKind, col, lit, lit_date, scan
from repro.sqlir.builder import desc
from repro.sqlir.expr import ScalarSubquery
from repro.storage import Catalog, Column, Table
from repro.storage.types import DATE, DECIMAL, INT64


@pytest.fixture()
def sales_db():
    cat = Catalog()
    cat.add_table(
        Table(
            "sales",
            [
                Column("sale_id", INT64, np.arange(6, dtype=np.int64)),
                Column("item_id", INT64, np.array([1, 2, 1, 3, 2, 1])),
                Column.from_logical(
                    "price", DECIMAL, [10.0, 20.0, 30.0, 5.0, 15.0, 25.0]
                ),
                Column.from_logical(
                    "day",
                    DATE,
                    [
                        "2018-01-01",
                        "2018-02-01",
                        "2018-03-01",
                        "2018-04-01",
                        "2018-05-01",
                        "2018-06-01",
                    ],
                ),
                Column.strings(
                    "dept", ["shoes", "hats", "shoes", "bags", "hats",
                             "shoes"]
                ),
            ],
        )
    )
    cat.add_table(
        Table(
            "items",
            [
                Column("item_id2", INT64, np.array([1, 2, 3, 4])),
                Column.strings("iname", ["boot", "cap", "tote", "belt"]),
            ],
        ),
        primary_key="item_id2",
    )
    return cat


class TestScanFilterProject:
    def test_scan_projects_columns(self, sales_db):
        out = Engine(sales_db).execute(scan("sales", ("price",)).plan)
        assert out.column_names == ["price"]
        assert out.nrows == 6

    def test_scan_shares_the_catalog_columns(self, sales_db):
        out = Engine(sales_db).execute_relation(scan("sales").plan)
        table = sales_db.table("sales")
        for name in ("sale_id", "price", "dept"):
            assert np.shares_memory(
                out.column(name).values, table.column(name).values
            ), name
        # Narrower on flash than in the evaluation domain: widened.
        day = out.column("day").values
        assert day.dtype == np.int64
        assert np.array_equal(day, table.column("day").values)

    def test_queries_leave_the_catalog_untouched(self, small_db):
        """Scans hand out the catalog's own arrays, so no operator on
        any path may write into a column it was given."""

        def checksums():
            return {
                (table.name, column.name): hashlib.sha1(
                    np.ascontiguousarray(column.values).tobytes()
                ).hexdigest()
                for table in small_db.tables.values()
                for column in table.columns
            }

        before = checksums()
        assert before
        morsels = MorselConfig(parallel=True, morsel_rows=8192, n_workers=1)
        simulator = AquomanSimulator(small_db, DeviceConfig())
        for n in sorted(tpch.ALL_QUERIES):
            plan = tpch.query(n)
            Engine(small_db).execute_relation(plan)
            Engine(small_db, morsels=morsels).execute_relation(plan)
            simulator.run(plan)
        assert checksums() == before

    def test_filter_by_date(self, sales_db):
        plan = (
            scan("sales")
            .filter(col("day") >= lit_date("2018-04-01"))
            .plan
        )
        assert Engine(sales_db).execute(plan).nrows == 3

    def test_project_decimal_arithmetic(self, sales_db):
        plan = (
            scan("sales")
            .project(net=col("price") * (1 - lit(0.1)))
            .limit(1)
            .plan
        )
        out = Engine(sales_db).execute(plan)
        assert out.to_rows() == [(9.0,)]


class TestJoins:
    def test_inner_join(self, sales_db):
        plan = (
            scan("sales", ("item_id", "price"))
            .join(scan("items"), "item_id", "item_id2")
            .plan
        )
        out = Engine(sales_db).execute(plan)
        assert out.nrows == 6
        assert "iname" in out.column_names

    def test_semi_and_anti(self, sales_db):
        hats = scan("sales").filter(col("dept") == lit("hats"))
        semi = (
            scan("items")
            .join(hats, "item_id2", "item_id", kind=JoinKind.SEMI)
            .plan
        )
        anti = (
            scan("items")
            .join(hats, "item_id2", "item_id", kind=JoinKind.ANTI)
            .plan
        )
        assert Engine(sales_db).execute(semi).nrows == 1  # item 2
        assert Engine(sales_db).execute(anti).nrows == 3

    def test_semi_with_residual(self, sales_db):
        # Items bought in a sale *other than* sale 0.
        renamed = scan("sales", ("sale_id", "item_id")).project(
            other_sale=col("sale_id"), other_item=col("item_id")
        )
        plan = (
            scan("sales", ("sale_id", "item_id"))
            .join(
                renamed,
                "item_id",
                "other_item",
                kind=JoinKind.SEMI,
                residual=col("other_sale") != col("sale_id"),
            )
            .plan
        )
        out = Engine(sales_db).execute(plan)
        # Items 1 and 2 appear in multiple sales; item 3 only once.
        assert out.nrows == 5

    def test_left_outer_match_flag(self, sales_db):
        plan = (
            scan("items")
            .join(
                scan("sales", ("item_id",)),
                "item_id2",
                "item_id",
                kind=JoinKind.LEFT_OUTER,
            )
            .plan
        )
        out = Engine(sales_db).execute(plan)
        flags = out.column(MATCH_FLAG).logical()
        assert out.nrows == 7  # 6 matches + unmatched item 4
        assert sum(flags) == 6

    @pytest.mark.parametrize(
        "kind, residual",
        [
            (JoinKind.INNER, col("bval") > col("pval")),
            (JoinKind.SEMI, col("bval") > col("pval")),
            (JoinKind.ANTI, col("bval") > col("pval")),
            (JoinKind.LEFT_OUTER, None),
            (JoinKind.INNER, None),
        ],
    )
    def test_same_relation_on_dense_and_sparse_keys(self, kind, residual):
        """Keys k take the direct-address route, the same keys as
        k * 10^12 + 3 the sort route; the join must not tell them apart."""
        rng = np.random.default_rng(14)
        pkey = rng.integers(-5, 16, size=60)   # duplicated, some unmatched
        bkey = rng.integers(1, 22, size=45)    # 0 is left for outer NULLs
        vals = rng.integers(0, 100, size=105)

        def sparse_key(k):
            return k * 10**12 + 3

        def run(encode):
            cat = Catalog()
            cat.add_table(Table("probe", [
                Column("pid", INT64, np.arange(60, dtype=np.int64)),
                Column("pkey", INT64, encode(pkey)),
                Column("pval", INT64, vals[:60]),
            ]))
            cat.add_table(Table("build", [
                Column("bid", INT64, np.arange(45, dtype=np.int64)),
                Column("bkey", INT64, encode(bkey)),
                Column("bval", INT64, vals[60:]),
            ]))
            plan = (
                scan("probe")
                .join(scan("build"), "pkey", "bkey", kind=kind,
                      residual=residual)
                .plan
            )
            return Engine(cat).execute_relation(plan)

        dense = run(lambda k: k)
        sparse = run(sparse_key)
        assert dense.nrows > 0
        assert set(pkey.tolist()) - set(bkey.tolist())  # unmatched rows
        assert dense.names == sparse.names
        for name in dense.names:
            a, b = dense.column(name), sparse.column(name)
            assert (a.kind, a.scale) == (b.kind, b.scale), name
            want = a.values
            if name == "pkey":
                want = sparse_key(want)
            elif name == "bkey":
                want = np.where(want == 0, 0, sparse_key(want))
            assert np.array_equal(want, b.values), name

    def test_join_collision_raises(self, sales_db):
        plan = (
            scan("sales", ("item_id",))
            .join(scan("sales", ("item_id", "price")), "item_id", "item_id")
            .plan
        )
        with pytest.raises(ValueError, match="collision"):
            Engine(sales_db).execute(plan)


class TestAggregation:
    def test_group_by_with_all_functions(self, sales_db):
        plan = (
            scan("sales")
            .aggregate(
                keys=("dept",),
                aggs=[
                    ("total", AggFunc.SUM, col("price")),
                    ("n", AggFunc.COUNT, None),
                    ("lo", AggFunc.MIN, col("price")),
                    ("hi", AggFunc.MAX, col("price")),
                    ("mean", AggFunc.AVG, col("price")),
                ],
            )
            .sort("dept")
            .plan
        )
        out = Engine(sales_db).execute(plan)
        rows = {r[0]: r[1:] for r in out.to_rows()}
        assert rows["shoes"] == (65.0, 3, 10.0, 30.0, pytest.approx(65 / 3))
        assert rows["bags"] == (5.0, 1, 5.0, 5.0, 5.0)

    def test_global_aggregate_single_row(self, sales_db):
        plan = (
            scan("sales")
            .aggregate(aggs=[("total", AggFunc.SUM, col("price"))])
            .plan
        )
        out = Engine(sales_db).execute(plan)
        assert out.to_rows() == [(105.0,)]

    def test_global_aggregate_over_empty_input(self, sales_db):
        plan = (
            scan("sales")
            .filter(col("price") > lit(10**6))
            .aggregate(aggs=[("total", AggFunc.SUM, col("price"))])
            .plan
        )
        out = Engine(sales_db).execute(plan)
        assert out.to_rows() == [(0.0,)]

    def test_count_distinct(self, sales_db):
        plan = (
            scan("sales")
            .aggregate(
                keys=("dept",),
                aggs=[("n_items", AggFunc.COUNT_DISTINCT, col("item_id"))],
            )
            .sort("dept")
            .plan
        )
        out = Engine(sales_db).execute(plan)
        assert dict(out.to_rows())["hats"] == 1

    def test_having(self, sales_db):
        plan = (
            scan("sales")
            .aggregate(
                keys=("dept",),
                aggs=[("total", AggFunc.SUM, col("price"))],
                having=col("total") > lit(20.0),
            )
            .plan
        )
        out = Engine(sales_db).execute(plan)
        assert {r[0] for r in out.to_rows()} == {"shoes", "hats"}


class TestSortLimitDistinct:
    def test_sort_desc_then_asc(self, sales_db):
        plan = (
            scan("sales", ("dept", "price"))
            .sort(desc("price"), "dept")
            .limit(2)
            .plan
        )
        out = Engine(sales_db).execute(plan)
        assert out.to_rows()[0] == ("shoes", 30.0)

    def test_string_sort_is_lexicographic(self, sales_db):
        plan = scan("sales", ("dept",)).distinct().sort("dept").plan
        out = Engine(sales_db).execute(plan)
        assert [r[0] for r in out.to_rows()] == ["bags", "hats", "shoes"]

    def test_limit_beyond_rows(self, sales_db):
        plan = scan("items").limit(100).plan
        assert Engine(sales_db).execute(plan).nrows == 4

    def test_distinct(self, sales_db):
        plan = scan("sales", ("item_id",)).distinct().plan
        assert Engine(sales_db).execute(plan).nrows == 3


class TestScalarSubquery:
    def test_scalar_threshold(self, sales_db):
        mean_price = ScalarSubquery(
            scan("sales")
            .aggregate(aggs=[("m", AggFunc.AVG, col("price"))])
            .plan
        )
        plan = scan("sales").filter(col("price") > mean_price).plan
        out = Engine(sales_db).execute(plan)
        # mean = 17.5 -> prices 20, 30, 25
        assert out.nrows == 3

    def test_scalar_requires_single_cell(self, sales_db):
        bad = ScalarSubquery(scan("sales", ("price",)).plan)
        plan = scan("sales").filter(col("price") > bad).plan
        with pytest.raises(ValueError, match="scalar"):
            Engine(sales_db).execute(plan)


class TestTrace:
    def test_flash_reads_recorded_per_column(self, sales_db):
        engine = Engine(sales_db)
        engine.execute(scan("sales", ("price", "day")).plan)
        assert ("sales", "price") in engine.trace.flash_read_bytes
        assert engine.trace.flash_read_bytes[("sales", "day")] == 6 * 4

    def test_ops_recorded_in_execution_order(self, sales_db):
        engine = Engine(sales_db)
        engine.execute(
            scan("sales").filter(col("price") > lit(10.0)).plan
        )
        assert [op.op for op in engine.trace.ops] == ["scan", "filter"]

    def test_aggregate_groups_recorded(self, sales_db):
        engine = Engine(sales_db)
        engine.execute(
            scan("sales")
            .aggregate(keys=("dept",), aggs=[("n", AggFunc.COUNT, None)])
            .plan
        )
        agg_op = engine.trace.ops[-1]
        assert agg_op.groups == 3
