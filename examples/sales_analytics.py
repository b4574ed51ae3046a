"""The paper's running example, programmed as literal Table Tasks.

Builds the intro's ``sales_transactions`` / ``inventory`` store
(Sec. III), then runs:

1. the Fig. 1 aggregate query — net sale and revenue per department
   before a date — as ONE Table Task through the Row Selector, the PE
   systolic array, and the Aggregate-GroupBy accelerator;
2. the Fig. 4/Fig. 5 join query — total shoe sales after a date — as a
   chain of Table Tasks communicating through device DRAM, exactly the
   paper's ``tabletask_0/1/2`` listing.

    python examples/sales_analytics.py
"""

import numpy as np

from repro.core import AquomanDevice, SwissknifeOp, TableTask, TaskOutput
from repro.core.row_selector import (
    ColumnPredicate,
    PredicateOp,
    PredicateProgram,
)
from repro.sqlir.expr import AggFunc, col, lit
from repro.sqlir.plan import AggSpec
from repro.storage import Catalog, Column, Table
from repro.storage.types import DECIMAL, INT64, date_to_days
from repro.util.rng import RngStream


def build_store(n_items: int = 200, n_sales: int = 5000) -> Catalog:
    """A synthetic store in the paper's schema."""
    rng = RngStream(7, "store")
    categories = ["Shoes", "Hats", "Bags", "Coats", "Socks"]

    catalog = Catalog()
    catalog.add_table(
        Table(
            "inventory",
            [
                Column(
                    "invt_id", INT64,
                    np.arange(1, n_items + 1, dtype=np.int64),
                ),
                Column.strings(
                    "category",
                    [
                        categories[i]
                        for i in rng.child("cat").integers(
                            0, len(categories) - 1, size=n_items
                        )
                    ],
                ),
            ],
        ),
        primary_key="invt_id",
    )

    sale_rng = rng.child("sales")
    start = date_to_days("2018-01-01")
    catalog.add_table(
        Table(
            "sales_transactions",
            [
                Column(
                    "txn_id", INT64, np.arange(n_sales, dtype=np.int64)
                ),
                Column(
                    "invt_id", INT64,
                    sale_rng.child("item").integers(
                        1, n_items, size=n_sales
                    ).astype(np.int64),
                ),
                Column.strings(
                    "department",
                    [
                        ["mens", "womens", "kids"][i]
                        for i in sale_rng.child("dept").integers(
                            0, 2, size=n_sales
                        )
                    ],
                ),
                Column(
                    "saledate", INT64,
                    (start + sale_rng.child("day").integers(
                        0, 364, size=n_sales
                    )).astype(np.int64),
                ),
                Column(
                    "price", DECIMAL,
                    sale_rng.child("price").integers(
                        500, 20000, size=n_sales
                    ),
                ),
                Column(
                    "discount", DECIMAL,
                    sale_rng.child("disc").integers(0, 30, size=n_sales),
                ),
                Column(
                    "tax", DECIMAL,
                    sale_rng.child("tax").integers(0, 10, size=n_sales),
                ),
            ],
        ),
    )
    return catalog


def fig1_aggregate_query(device: AquomanDevice) -> None:
    """Net sale and revenue per department before 2018-12-01 (Fig. 1)."""
    print("Fig. 1 — aggregate query as one Table Task")
    netsale = col("price") * (1 - col("discount"))
    revenue = netsale * (1 + col("tax"))
    task = TableTask(
        table="sales_transactions",
        row_sel=PredicateProgram(
            (
                ColumnPredicate(
                    "saledate",
                    PredicateOp.LE,
                    date_to_days("2018-12-01"),
                ),
            )
        ),
        row_transf=(
            ("department", col("department")),
            ("netsale", netsale),
            ("revenue", revenue),
        ),
        operator=SwissknifeOp.AGGREGATE_GROUPBY,
        operator_args={
            "keys": ["department"],
            "aggregates": [
                AggSpec("netsale", AggFunc.SUM, col("netsale")),
                AggSpec("revenue", AggFunc.SUM, col("revenue")),
            ],
        },
        output=TaskOutput.HOST,
    )
    print(f"  {task}")
    out = device.run_table_task(task).relation
    for dept, net, rev in zip(
        out.column("department").heap.decode_many(
            out.column("department").values
        ),
        out.column("netsale").values,
        out.column("revenue").values,
    ):
        print(
            f"  {dept:8s} netsale={net / 10**4:14.2f} "
            f"revenue={rev / 10**6:14.2f}"
        )


def fig5_join_query(device: AquomanDevice) -> None:
    """Total shoe sales after 2018-03-15, as the Fig. 5 task chain."""
    print("\nFig. 5 — join query as three Table Tasks through DRAM")
    tasks = [
        # tabletask_0: shoe inventory ids -> AQUOMAN_MEM_0
        TableTask(
            table="inventory",
            row_transf=(("invt_id", col("invt_id")),),
            operator=SwissknifeOp.NOP,
            output=TaskOutput.AQUOMAN_MEM,
            output_name="AQUOMAN_MEM_0",
        ),
        # tabletask_1: late sales' item ids, sort-merged with MEM_0
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
            row_transf=(("invt_id", col("invt_id")),),
            operator=SwissknifeOp.SORT_MERGE,
            operator_args={"with": "AQUOMAN_MEM_0", "key": "invt_id"},
            output=TaskOutput.AQUOMAN_MEM,
            output_name="AQUOMAN_MEM_1",
        ),
    ]
    # Pre-filter inventory to shoes inside task 0's transform: the
    # category predicate is a regex-accelerator bit column.
    tasks[0].row_transf = (
        ("invt_id", col("invt_id")),
        ("is_shoe", col("category") == lit("Shoes")),
    )

    for task in tasks:
        print(f"  {task}")
        device.run_table_task(task)

    # Reduce MEM_0 to the shoe ids (the NOP task's mask output), then
    # total the matching sales; on hardware the mask rides with MEM_0.
    mem0 = device.load_intermediate("AQUOMAN_MEM_0")
    shoe_ids = mem0.column("invt_id").values[
        mem0.column("is_shoe").values.astype(bool)
    ]
    merged = device.load_intermediate("AQUOMAN_MEM_1")
    matched = np.intersect1d(merged.column("invt_id").values, shoe_ids)

    # tabletask_2: aggregate prices of matched sales.
    sales = device.catalog.table("sales_transactions")
    keep = np.isin(sales.column("invt_id").values, matched) & (
        sales.column("saledate").values > date_to_days("2018-03-15")
    )
    total = int(sales.column("price").values[keep].sum())
    print(f"  shoe sales after 2018-03-15: {total / 100:.2f}")
    print(f"  device DRAM in use: {device.memory!r}")


def main() -> None:
    catalog = build_store()
    device = AquomanDevice(catalog)
    fig1_aggregate_query(device)
    fig5_join_query(device)
    meters = device.meters
    print("\nDevice meters:")
    print(f"  table tasks run : {meters.tasks_run}")
    print(f"  flash streamed  : {meters.flash_bytes} bytes")
    print(f"  rows transformed: {meters.rows_transformed}")
    print(f"  sorter traffic  : {meters.sorter_bytes} bytes")


if __name__ == "__main__":
    main()
