"""The device executing literal Table Tasks (the paper's Fig. 1/Fig. 5)."""

import numpy as np
import pytest

from repro.core import (
    AquomanDevice,
    DeviceConfig,
    SwissknifeOp,
    TableTask,
    TaskOutput,
)
from repro.core.device import ROWID
from repro.core.row_selector import (
    ColumnPredicate,
    PredicateOp,
    PredicateProgram,
)
from repro.engine.relation import Relation
from repro.sqlir.expr import AggFunc, Kind, TypedArray, col, lit
from repro.sqlir.plan import AggSpec
from repro.storage import Catalog, Column, Table
from repro.storage.types import DECIMAL, INT64, date_to_days


TOTAL_PRICE = AggSpec("total", AggFunc.SUM, col("price"))


@pytest.fixture()
def store_db():
    """The paper's running example: sales_transactions + inventory."""
    cat = Catalog()
    cat.add_table(
        Table(
            "inventory",
            [
                Column("invt_id", INT64, np.arange(1, 7, dtype=np.int64)),
                Column.strings(
                    "category",
                    ["Shoes", "Hats", "Shoes", "Bags", "Shoes", "Hats"],
                ),
            ],
        ),
        primary_key="invt_id",
    )
    cat.add_table(
        Table(
            "sales_transactions",
            [
                Column("txn_id", INT64, np.arange(8, dtype=np.int64)),
                Column("s_invt_id", INT64,
                       np.array([1, 2, 3, 4, 5, 1, 3, 6])),
                Column.from_logical(
                    "price", DECIMAL,
                    [10.0, 5.0, 20.0, 8.0, 12.0, 11.0, 21.0, 6.0],
                ),
                Column(
                    "saledate",
                    INT64,
                    np.array(
                        [
                            date_to_days(d)
                            for d in (
                                "2018-01-10", "2018-02-10", "2018-03-20",
                                "2018-04-10", "2018-05-10", "2018-02-01",
                                "2018-06-10", "2018-03-16",
                            )
                        ]
                    ),
                ),
            ],
        ),
    )
    return cat


def _rowids(rowids):
    """A DRAM intermediate naming rows, as ``mask_src`` reads it."""
    return Relation(
        {ROWID: TypedArray(np.array(rowids, dtype=np.int64), Kind.INT, 0)}
    )


class TestSingleTableTask:
    def test_filter_transform_aggregate(self, store_db):
        """The Fig. 1 aggregate query as one Table Task."""
        device = AquomanDevice(store_db)
        task = TableTask(
            table="sales_transactions",
            row_sel=PredicateProgram(
                (
                    ColumnPredicate(
                        "saledate",
                        PredicateOp.GT,
                        date_to_days("2018-03-15"),
                    ),
                )
            ),
            row_transf=(("price", col("price")),),
            operator=SwissknifeOp.AGGREGATE,
            operator_args={"aggregates": [TOTAL_PRICE]},
            output=TaskOutput.HOST,
        )
        out = device.run_table_task(task).relation
        # Sales after 2018-03-15: 20.0? no - txn 2 is 03-20 -> included.
        # Included: 20 + 8 + 12 + 21 + 6 = 67.
        assert out.column("total").values.tolist() == [6700]
        assert device.meters.tasks_run == 1
        assert device.meters.flash_bytes > 0

    def test_groupby_task(self, store_db):
        device = AquomanDevice(store_db)
        task = TableTask(
            table="sales_transactions",
            row_transf=(
                ("s_invt_id", col("s_invt_id")),
                ("price", col("price")),
            ),
            operator=SwissknifeOp.AGGREGATE_GROUPBY,
            operator_args={
                "keys": ["s_invt_id"],
                "aggregates": [TOTAL_PRICE],
            },
        )
        out = device.run_table_task(task).relation
        got = dict(
            zip(
                out.column("s_invt_id").values.tolist(),
                out.column("total").values.tolist(),
            )
        )
        assert got[1] == 2100  # 10.0 + 11.0
        assert got[3] == 4100

    def test_topk_task(self, store_db):
        device = AquomanDevice(store_db)
        task = TableTask(
            table="sales_transactions",
            row_transf=(("price", col("price")),),
            operator=SwissknifeOp.TOPK,
            operator_args={"k": 2, "key": "price"},
        )
        out = device.run_table_task(task).relation
        assert out.column("price").values.tolist() == [2100, 2000]

    def test_transform_runs_on_pes(self, store_db):
        device = AquomanDevice(store_db)
        task = TableTask(
            table="sales_transactions",
            row_transf=(("net", col("price") * (1 - lit(0.5))),),
        )
        out = device.run_table_task(task).relation
        assert out.column("net").values[0] == 10.0 * 100 * 50
        assert device.meters.pe_fallback_exprs == 0  # pure PE path

    def test_regex_prelowering(self, store_db):
        device = AquomanDevice(store_db)
        task = TableTask(
            table="inventory",
            row_transf=(
                ("is_shoe", col("category") == lit("Shoes")),
                ("invt_id", col("invt_id")),
            ),
        )
        out = device.run_table_task(task).relation
        assert out.column("is_shoe").values.tolist() == [1, 0, 1, 0, 1, 0]
        assert device.regex_accel.rows_evaluated == 6


class TestJoinTaskChain:
    def test_fig5_join_pipeline(self, store_db):
        """The paper's Fig. 5: three Table Tasks joining through DRAM."""
        device = AquomanDevice(store_db)
        tasks = [
            TableTask(
                table="inventory",
                row_transf=((("s_invt_id"), col("invt_id")),),
                operator=SwissknifeOp.NOP,
                output=TaskOutput.AQUOMAN_MEM,
                output_name="MEM_0",
            ),
            TableTask(
                table="sales_transactions",
                row_sel=PredicateProgram(
                    (
                        ColumnPredicate(
                            "saledate",
                            PredicateOp.GT,
                            date_to_days("2018-03-15"),
                        ),
                    )
                ),
                row_transf=(("s_invt_id", col("s_invt_id")),),
                operator=SwissknifeOp.SORT_MERGE,
                operator_args={"with": "MEM_0", "key": "s_invt_id"},
                output=TaskOutput.AQUOMAN_MEM,
                output_name="MEM_1",
            ),
        ]
        for task in tasks:
            device.run_table_task(task)
        merged = device.load_intermediate("MEM_1")
        # Matched inventory ids of post-03-15 sales: {3, 4, 5, 6} each 1.
        assert sorted(merged.column("s_invt_id").values.tolist()) == [
            3, 4, 5, 6,
        ]
        assert device.meters.sorter_bytes > 0

    def test_mask_src_from_dram(self, store_db):
        device = AquomanDevice(store_db)
        device.store_intermediate("MASK", _rowids([0, 2, 4]))
        task = TableTask(
            table="sales_transactions",
            mask_src="MASK",
            row_transf=(("price", col("price")),),
            operator=SwissknifeOp.AGGREGATE,
            operator_args={"aggregates": [TOTAL_PRICE]},
        )
        out = device.run_table_task(task).relation
        assert out.column("total").values.tolist() == [4200]  # 10+20+12

    def test_sort_task_stores_sorted_keys(self, store_db):
        device = AquomanDevice(store_db)
        task = TableTask(
            table="sales_transactions",
            row_transf=(
                ("price", col("price")),
                (ROWID, col(ROWID)),
            ),
            operator=SwissknifeOp.SORT,
            operator_args={"key": "price", "payload": ROWID},
            output=TaskOutput.AQUOMAN_MEM,
            output_name="SORTED",
        )
        device.run_table_task(task)
        stored = device.load_intermediate("SORTED")
        keys = stored.column("price").values
        assert (np.diff(keys) >= 0).all()
        assert device.memory.holds("SORTED")

    def test_memory_lifecycle(self, store_db):
        device = AquomanDevice(store_db)
        device.store_intermediate("X", _rowids(range(4)))
        assert device.memory.holds("X")
        device.free_intermediate("X")
        assert not device.memory.holds("X")
        with pytest.raises(KeyError):
            device.load_intermediate("X")


class TestTrafficAccounting:
    def test_unmasked_read_charges_whole_column(self, store_db):
        device = AquomanDevice(store_db)
        task = TableTask(
            table="sales_transactions",
            row_transf=(("price", col("price")),),
        )
        device.run_table_task(task)
        assert device.meters.flash_bytes == 8192  # one 8 KB page

    def test_masked_read_skips_pages(self, small_db):
        device = AquomanDevice(small_db)
        extent = device.layout.extent("lineitem", "l_orderkey")
        task = TableTask(
            table="lineitem",
            mask_src="ONE_ROW",
            row_transf=(("l_orderkey", col("l_orderkey")),),
        )
        # Selecting one row touches exactly one page.
        device.store_intermediate("ONE_ROW", _rowids([0]))
        device.run_table_task(task)
        assert device.meters.flash_bytes == 8192
        device.store_intermediate("ONE_ROW", _rowids(range(extent.nrows)))
        device.run_table_task(task)
        assert device.meters.flash_bytes == 8192 + extent.n_pages * 8192

    def test_a_column_is_read_once_per_stream(self, store_db):
        """The selector's column is not charged again by the transform."""
        device = AquomanDevice(store_db)
        task = TableTask(
            table="sales_transactions",
            row_sel=PredicateProgram(
                (ColumnPredicate("price", PredicateOp.GT, 1000),)
            ),
            row_transf=(("price", col("price")),),
        )
        out = device.run_table_task(task).relation
        assert out.column("price").values.tolist() == [2000, 1200, 1100, 2100]
        assert device.meters.flash_bytes == 8192
        assert device.row_selector.rows_scanned == 8

    def test_effective_heap_scaling(self, small_db):
        cfg = DeviceConfig(scale_ratio=1000.0)
        device = AquomanDevice(small_db, cfg)
        comments = small_db.table("orders").column("o_comment").heap
        modes = small_db.table("lineitem").column("l_shipmode").heap
        assert device.effective_heap_bytes(comments) > comments.heap_bytes
        assert device.effective_heap_bytes(modes) == modes.heap_bytes
