"""TPC-H data generator (dbgen), vectorised.

Implements the spec's §4.2 population rules: value domains, pricing
formulas, date arithmetic, order/lineitem consistency (o_orderstatus,
o_totalprice derived from the lineitems) and the sparse customer rule
(custkeys divisible by three place no orders — Q22's entire point).

Divergences from the reference dbgen, all behaviour-preserving for the
benchmark (see DESIGN.md):

- order keys are dense (the reference scatters 8 keys per 32-slot
  window; sparsity only stresses key-range tricks we don't use);
- comments are vocabulary word-salad with the Q13/Q16 marker phrases
  injected at spec-like rates, instead of the full 300-production
  grammar.
"""

from __future__ import annotations

import numpy as np

from repro.storage.catalog import Catalog, ForeignKey
from repro.storage.column import Column
from repro.storage.table import Table
from repro.storage.types import date_to_days
from repro.tpch import text
from repro.tpch.schema import (
    AVAIL_QTYS,
    BRANDS_PER_MANUFACTURER,
    CONTAINER_SYLLABLE_1,
    CONTAINER_SYLLABLE_2,
    CURRENT_DATE,
    CUSTOMER,
    END_DATE,
    FOREIGN_KEYS,
    LINEITEM,
    LINES_PER_ORDER,
    LINE_STATUSES,
    MANUFACTURERS,
    MKT_SEGMENTS,
    NATION,
    NATIONS,
    ORDERS,
    ORDER_DATE_TAIL_DAYS,
    ORDER_PRIORITIES,
    ORDER_STATUSES,
    PART,
    PARTSUPP,
    PART_COLORS,
    P_SIZES,
    REGION,
    REGIONS,
    RETURN_FLAGS,
    SHIP_INSTRUCTS,
    SHIP_MODES,
    START_DATE,
    SUPPLIER,
    TYPE_SYLLABLE_1,
    TYPE_SYLLABLE_2,
    TYPE_SYLLABLE_3,
    TableSpec,
    table_cardinality,
)
from repro.util.rng import RngStream

DEFAULT_SEED = 19940516  # arbitrary but fixed: runs are reproducible


def generate(scale_factor: float, seed: int = DEFAULT_SEED) -> Catalog:
    """Build the full eight-table TPC-H catalog at ``scale_factor``.

    The catalog includes MonetDB-style join-index columns for every
    declared foreign key; ``catalog.scale_factor`` records the SF for
    the trace-scaling machinery.
    """
    if scale_factor <= 0:
        raise ValueError("scale factor must be positive")
    rng = RngStream(seed, f"tpch-sf{scale_factor}")

    catalog = Catalog()
    catalog.add_table(_region(rng), primary_key="r_regionkey")
    catalog.add_table(_nation(rng), primary_key="n_nationkey")

    n_supp = table_cardinality("supplier", scale_factor)
    n_cust = table_cardinality("customer", scale_factor)
    n_part = table_cardinality("part", scale_factor)
    n_orders = table_cardinality("orders", scale_factor)

    catalog.add_table(_supplier(rng, n_supp), primary_key="s_suppkey")
    catalog.add_table(_customer(rng, n_cust), primary_key="c_custkey")
    part_table, retail_cents = _part(rng, n_part)
    catalog.add_table(part_table, primary_key="p_partkey")
    catalog.add_table(_partsupp(rng, n_part, n_supp))

    orders_table, lineitem_table = _orders_and_lineitems(
        rng, n_orders, n_cust, n_part, n_supp, retail_cents, scale_factor
    )
    catalog.add_table(orders_table, primary_key="o_orderkey")
    catalog.add_table(lineitem_table)

    for table, column, ref_table, ref_column in FOREIGN_KEYS:
        catalog.add_foreign_key(
            ForeignKey(table, column, ref_table, ref_column)
        )

    catalog.scale_factor = scale_factor
    catalog.seed = seed
    catalog.constant_tables = {"region", "nation"}
    return catalog


# ---------------------------------------------------------------------------
# Constant tables
# ---------------------------------------------------------------------------


def _region(rng: RngStream) -> Table:
    r = rng.child("region")
    return _table(REGION, {
        "r_regionkey": np.arange(5, dtype=np.int32),
        "r_name": REGIONS,
        "r_comment": text.comments(r.child("comment"), 5),
    })


def _nation(rng: RngStream) -> Table:
    r = rng.child("nation")
    names = [n for n, _ in NATIONS]
    regions = np.array([rk for _, rk in NATIONS], dtype=np.int32)
    return _table(NATION, {
        "n_nationkey": np.arange(25, dtype=np.int32),
        "n_name": names,
        "n_regionkey": regions,
        "n_comment": text.comments(r.child("comment"), 25),
    })


# ---------------------------------------------------------------------------
# Scaling tables
# ---------------------------------------------------------------------------


def _supplier(rng: RngStream, count: int) -> Table:
    r = rng.child("supplier")
    nation = r.child("nation").integers(0, 24, size=count).astype(np.int32)
    acctbal = r.child("acctbal").integers(-99999, 999999, size=count)
    return _table(SUPPLIER, {
        "s_suppkey": np.arange(1, count + 1, dtype=np.int32),
        "s_name": [f"Supplier#{i:09d}" for i in range(1, count + 1)],
        "s_address": text.addresses(r.child("address"), count),
        "s_nationkey": nation,
        "s_phone": text.phone_numbers(r.child("phone"), nation),
        "s_acctbal": acctbal,
        "s_comment": text.comments(
            r.child("comment"),
            count,
            marker=("Customer", "Complaints"),
            marker_rate=text.CUSTOMER_COMPLAINTS_RATE,
        ),
    })


def _customer(rng: RngStream, count: int) -> Table:
    r = rng.child("customer")
    nation = r.child("nation").integers(0, 24, size=count).astype(np.int32)
    acctbal = r.child("acctbal").integers(-99999, 999999, size=count)
    segment_idx = r.child("segment").integers(
        0, len(MKT_SEGMENTS) - 1, size=count
    )
    return _table(CUSTOMER, {
        "c_custkey": np.arange(1, count + 1, dtype=np.int32),
        "c_name": [f"Customer#{i:09d}" for i in range(1, count + 1)],
        "c_address": text.addresses(r.child("address"), count),
        "c_nationkey": nation,
        "c_phone": text.phone_numbers(r.child("phone"), nation),
        "c_acctbal": acctbal,
        "c_mktsegment": [MKT_SEGMENTS[i] for i in segment_idx],
        "c_comment": text.comments(r.child("comment"), count),
    })


def _part(rng: RngStream, count: int) -> tuple[Table, np.ndarray]:
    r = rng.child("part")
    partkey = np.arange(1, count + 1, dtype=np.int64)

    # Spec 4.2.3 retail price formula (in cents).
    retail_cents = (
        90000 + ((partkey // 10) % 20001) + 100 * (partkey % 1000)
    ).astype(np.int64)

    color_idx = r.child("name").integers(
        0, len(PART_COLORS) - 1, size=(count, 5)
    )
    names = [
        " ".join(PART_COLORS[j] for j in row) for row in color_idx
    ]
    mfgr_id = r.child("mfgr").integers(1, MANUFACTURERS, size=count)
    brand_sub = r.child("brand").integers(
        1, BRANDS_PER_MANUFACTURER, size=count
    )
    type_idx = np.stack(
        [
            r.child("type1").integers(0, len(TYPE_SYLLABLE_1) - 1, size=count),
            r.child("type2").integers(0, len(TYPE_SYLLABLE_2) - 1, size=count),
            r.child("type3").integers(0, len(TYPE_SYLLABLE_3) - 1, size=count),
        ]
    )
    types = [
        f"{TYPE_SYLLABLE_1[a]} {TYPE_SYLLABLE_2[b]} {TYPE_SYLLABLE_3[c]}"
        for a, b, c in type_idx.T
    ]
    cont_idx = np.stack(
        [
            r.child("cont1").integers(
                0, len(CONTAINER_SYLLABLE_1) - 1, size=count
            ),
            r.child("cont2").integers(
                0, len(CONTAINER_SYLLABLE_2) - 1, size=count
            ),
        ]
    )
    containers = [
        f"{CONTAINER_SYLLABLE_1[a]} {CONTAINER_SYLLABLE_2[b]}"
        for a, b in cont_idx.T
    ]

    table = _table(PART, {
        "p_partkey": partkey,
        "p_name": names,
        "p_mfgr": [f"Manufacturer#{int(m)}" for m in mfgr_id],
        "p_brand": [
            f"Brand#{int(m)}{int(s)}" for m, s in zip(mfgr_id, brand_sub)
        ],
        "p_type": types,
        "p_size": r.child("size").integers(*P_SIZES, size=count),
        "p_container": containers,
        "p_retailprice": retail_cents,
        "p_comment": text.comments(r.child("comment"), count),
    })
    return table, retail_cents


def _table(spec: TableSpec, values: dict) -> Table:
    """The spec's columns in its order, each stored at its declared
    type; ``values`` maps every column name to its values (strings, or
    integers in any dtype — the column checks they fit)."""
    columns = []
    for name, ctype in spec.columns:
        if ctype.is_string:
            columns.append(Column.strings(name, values[name], ctype))
        else:
            columns.append(Column(name, ctype, values[name]))
    return Table(spec.name, columns)


def partsupp_suppliers(partkey: np.ndarray, n_supp: int) -> np.ndarray:
    """The four suppliers of each part (spec 4.2.3 formula).

    Returns an array of shape ``(len(partkey), 4)`` of suppkeys.
    """
    pk = partkey.astype(np.int64)
    offsets = np.arange(4, dtype=np.int64)
    s = np.int64(n_supp)
    return (
        (pk[:, None] + offsets * (s // 4 + (pk[:, None] - 1) // s)) % s + 1
    ).astype(np.int32)


def _partsupp(rng: RngStream, n_part: int, n_supp: int) -> Table:
    r = rng.child("partsupp")
    partkey = np.repeat(np.arange(1, n_part + 1, dtype=np.int64), 4)
    suppkey = partsupp_suppliers(
        np.arange(1, n_part + 1, dtype=np.int64), n_supp
    ).reshape(-1)
    count = len(partkey)
    return _table(PARTSUPP, {
        "ps_partkey": partkey,
        "ps_suppkey": suppkey,
        "ps_availqty": r.child("qty").integers(*AVAIL_QTYS, size=count),
        "ps_supplycost": r.child("cost").integers(100, 100000, size=count),
        "ps_comment": text.comments(r.child("comment"), count),
    })


# ---------------------------------------------------------------------------
# Orders and lineitems (generated together for consistency)
# ---------------------------------------------------------------------------


def _orders_and_lineitems(
    rng: RngStream,
    n_orders: int,
    n_cust: int,
    n_part: int,
    n_supp: int,
    retail_cents: np.ndarray,
    scale_factor: float,
) -> tuple[Table, Table]:
    ro = rng.child("orders")
    rl = rng.child("lineitem")

    start = date_to_days(START_DATE)
    end = date_to_days(END_DATE) - ORDER_DATE_TAIL_DAYS
    current = date_to_days(CURRENT_DATE)

    orderkey = np.arange(1, n_orders + 1, dtype=np.int64)

    # Customers whose key is divisible by 3 never order (spec 4.2.3):
    # draw an index into the set {1, 2, 4, 5, 7, 8, ...} of valid keys.
    n_valid = n_cust - n_cust // 3
    idx = ro.child("cust").integers(0, max(n_valid - 1, 0), size=n_orders)
    custkey = (3 * (idx // 2) + 1 + idx % 2).astype(np.int64)

    orderdate = ro.child("date").integers(start, end, size=n_orders)

    # Lineitems per order: 1..7 uniform.
    per_order = rl.child("count").integers(*LINES_PER_ORDER, size=n_orders)
    total_items = int(per_order.sum())
    l_orderkey = np.repeat(orderkey, per_order)
    l_odate = np.repeat(orderdate, per_order)

    linenumber = (
        np.arange(total_items, dtype=np.int64)
        - np.repeat(np.cumsum(per_order) - per_order, per_order)
        + 1
    )

    l_partkey = rl.child("part").integers(1, n_part, size=total_items)
    # Pick one of the part's four suppliers.
    supp_choice = rl.child("suppidx").integers(0, 3, size=total_items)
    four = partsupp_suppliers(l_partkey, n_supp)
    l_suppkey = four[np.arange(total_items), supp_choice].astype(np.int64)

    quantity = rl.child("qty").integers(1, 50, size=total_items)
    extended = quantity * retail_cents[l_partkey - 1]  # cents, scale 2
    discount = rl.child("disc").integers(0, 10, size=total_items)  # scale 2
    tax = rl.child("tax").integers(0, 8, size=total_items)  # scale 2

    shipdate = l_odate + rl.child("ship").integers(1, 121, size=total_items)
    commitdate = l_odate + rl.child("commit").integers(
        30, 90, size=total_items
    )
    receiptdate = shipdate + rl.child("receipt").integers(
        1, 30, size=total_items
    )

    returned = receiptdate <= current
    r_or_a = rl.child("flag").integers(0, 1, size=total_items)
    returnflag = np.where(returned, np.where(r_or_a == 0, 0, 1), 2)
    flag_strings = np.array(RETURN_FLAGS)
    linestatus = np.where(shipdate > current, 0, 1)
    status_strings = np.array(LINE_STATUSES)

    ship_idx = rl.child("mode").integers(
        0, len(SHIP_MODES) - 1, size=total_items
    )
    instr_idx = rl.child("instr").integers(
        0, len(SHIP_INSTRUCTS) - 1, size=total_items
    )

    # Per-line charge at scale 6, for o_totalprice (rounded to cents).
    line_charge = extended * (100 - discount) * (100 + tax)  # scale 6
    order_total6 = np.zeros(n_orders, dtype=np.int64)
    np.add.at(order_total6, l_orderkey - 1, line_charge)
    totalprice = order_total6 // 10_000  # scale 6 -> cents

    # o_orderstatus: F if all lines F, O if all O, else P.
    lines_f = np.zeros(n_orders, dtype=np.int64)
    np.add.at(lines_f, l_orderkey - 1, (linestatus == 1).astype(np.int64))
    status = np.where(
        lines_f == per_order, 1, np.where(lines_f == 0, 0, 2)
    )
    ostatus_strings = np.array(ORDER_STATUSES)

    prio_idx = ro.child("prio").integers(
        0, len(ORDER_PRIORITIES) - 1, size=n_orders
    )

    orders = _table(ORDERS, {
        "o_orderkey": orderkey,
        "o_custkey": custkey,
        "o_orderstatus": ostatus_strings[status].tolist(),
        "o_totalprice": totalprice,
        "o_orderdate": orderdate,
        "o_orderpriority": [ORDER_PRIORITIES[i] for i in prio_idx],
        "o_clerk": text.clerk_names(ro.child("clerk"), n_orders, scale_factor),
        "o_shippriority": np.zeros(n_orders, dtype=np.int8),
        "o_comment": text.comments(
            ro.child("comment"),
            n_orders,
            marker=("special", "requests"),
            marker_rate=text.SPECIAL_REQUESTS_RATE,
        ),
    })

    lineitem = _table(LINEITEM, {
        "l_orderkey": l_orderkey,
        "l_partkey": l_partkey,
        "l_suppkey": l_suppkey,
        "l_linenumber": linenumber,
        "l_quantity": quantity * 100,
        "l_extendedprice": extended,
        "l_discount": discount,
        "l_tax": tax,
        "l_returnflag": flag_strings[returnflag].tolist(),
        "l_linestatus": status_strings[linestatus].tolist(),
        "l_shipdate": shipdate,
        "l_commitdate": commitdate,
        "l_receiptdate": receiptdate,
        "l_shipinstruct": [SHIP_INSTRUCTS[i] for i in instr_idx],
        "l_shipmode": [SHIP_MODES[i] for i in ship_idx],
        "l_comment": text.comments(rl.child("comment"), total_items),
    })
    return orders, lineitem
