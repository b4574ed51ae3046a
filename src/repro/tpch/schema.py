"""TPC-H schema: tables, columns, keys, cardinality rules (spec §1.4, 4.2).

Key physical choices (these set the flash byte counts the performance
model scales):

- ``orderkey`` columns are int64 (at SF-1000 they exceed 2**31);
  all other keys are int32, and decimals int64 hundredths.  Key ranges
  grow with the scale factor and decimals feed the arithmetic, so both
  keep their full width;
- a column whose domain does not grow with the scale factor is stored
  at the narrowest signed width that holds it
  (:meth:`~repro.storage.types.ColumnType.stored_as`): small-domain
  strings as int8 heap codes (``p_type``'s 150 values as int16), dates
  as int16 epoch days (1992-1998 is 8 035-10 591), and
  ``l_linenumber``, ``p_size``, ``o_shippriority`` as int8 and
  ``ps_availqty`` as int16;
- other strings are 4-byte heap codes — the MonetDB-style layout
  AQUOMAN reads.  Each foreign key's join index is int32 row ids
  (:meth:`repro.storage.catalog.Catalog.add_foreign_key`).

``tests/test_narrow_widths.py`` checks every narrowed width against the
value domains at the bottom of this file.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.types import (
    CHAR,
    DATE,
    DECIMAL,
    INT32,
    INT64,
    ColumnType,
)

CODE8 = CHAR.stored_as("int8")     # strings of at most 128 values
CODE16 = CHAR.stored_as("int16")
DAY16 = DATE.stored_as("int16")    # epoch days up to 2059-09-18
INT8 = INT32.stored_as("int8")
INT16 = INT32.stored_as("int16")


@dataclass(frozen=True)
class TableSpec:
    """Static description of one TPC-H table."""

    name: str
    columns: tuple[tuple[str, ColumnType], ...]
    primary_key: str | None
    # rows per unit scale factor; None = constant table
    rows_per_sf: int | None
    constant_rows: int = 0

    def cardinality(self, scale_factor: float) -> int:
        if self.rows_per_sf is None:
            return self.constant_rows
        return max(1, int(round(self.rows_per_sf * scale_factor)))


REGION = TableSpec(
    "region",
    (
        ("r_regionkey", INT32),
        ("r_name", CHAR),
        ("r_comment", CHAR),
    ),
    primary_key="r_regionkey",
    rows_per_sf=None,
    constant_rows=5,
)

NATION = TableSpec(
    "nation",
    (
        ("n_nationkey", INT32),
        ("n_name", CHAR),
        ("n_regionkey", INT32),
        ("n_comment", CHAR),
    ),
    primary_key="n_nationkey",
    rows_per_sf=None,
    constant_rows=25,
)

SUPPLIER = TableSpec(
    "supplier",
    (
        ("s_suppkey", INT32),
        ("s_name", CHAR),
        ("s_address", CHAR),
        ("s_nationkey", INT32),
        ("s_phone", CHAR),
        ("s_acctbal", DECIMAL),
        ("s_comment", CHAR),
    ),
    primary_key="s_suppkey",
    rows_per_sf=10_000,
)

CUSTOMER = TableSpec(
    "customer",
    (
        ("c_custkey", INT32),
        ("c_name", CHAR),
        ("c_address", CHAR),
        ("c_nationkey", INT32),
        ("c_phone", CHAR),
        ("c_acctbal", DECIMAL),
        ("c_mktsegment", CODE8),
        ("c_comment", CHAR),
    ),
    primary_key="c_custkey",
    rows_per_sf=150_000,
)

PART = TableSpec(
    "part",
    (
        ("p_partkey", INT32),
        ("p_name", CHAR),
        ("p_mfgr", CODE8),
        ("p_brand", CODE8),
        ("p_type", CODE16),
        ("p_size", INT8),
        ("p_container", CODE8),
        ("p_retailprice", DECIMAL),
        ("p_comment", CHAR),
    ),
    primary_key="p_partkey",
    rows_per_sf=200_000,
)

PARTSUPP = TableSpec(
    "partsupp",
    (
        ("ps_partkey", INT32),
        ("ps_suppkey", INT32),
        ("ps_availqty", INT16),
        ("ps_supplycost", DECIMAL),
        ("ps_comment", CHAR),
    ),
    primary_key=None,  # composite (partkey, suppkey); not used as a PK here
    rows_per_sf=800_000,
)

ORDERS = TableSpec(
    "orders",
    (
        ("o_orderkey", INT64),
        ("o_custkey", INT32),
        ("o_orderstatus", CODE8),
        ("o_totalprice", DECIMAL),
        ("o_orderdate", DAY16),
        ("o_orderpriority", CODE8),
        ("o_clerk", CHAR),
        ("o_shippriority", INT8),
        ("o_comment", CHAR),
    ),
    primary_key="o_orderkey",
    rows_per_sf=1_500_000,
)

LINEITEM = TableSpec(
    "lineitem",
    (
        ("l_orderkey", INT64),
        ("l_partkey", INT32),
        ("l_suppkey", INT32),
        ("l_linenumber", INT8),
        ("l_quantity", DECIMAL),
        ("l_extendedprice", DECIMAL),
        ("l_discount", DECIMAL),
        ("l_tax", DECIMAL),
        ("l_returnflag", CODE8),
        ("l_linestatus", CODE8),
        ("l_shipdate", DAY16),
        ("l_commitdate", DAY16),
        ("l_receiptdate", DAY16),
        ("l_shipinstruct", CODE8),
        ("l_shipmode", CODE8),
        ("l_comment", CHAR),
    ),
    primary_key=None,
    rows_per_sf=6_000_000,  # approximate: 1-7 items per order, mean 4
)

TPCH_TABLES: tuple[TableSpec, ...] = (
    REGION,
    NATION,
    SUPPLIER,
    CUSTOMER,
    PART,
    PARTSUPP,
    ORDERS,
    LINEITEM,
)

# Foreign keys (the catalog materialises a RowID join index for each).
FOREIGN_KEYS: tuple[tuple[str, str, str, str], ...] = (
    ("nation", "n_regionkey", "region", "r_regionkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("partsupp", "ps_partkey", "part", "p_partkey"),
    ("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
)


def table_cardinality(name: str, scale_factor: float) -> int:
    """Spec cardinality of a table at a scale factor."""
    for spec in TPCH_TABLES:
        if spec.name == name:
            return spec.cardinality(scale_factor)
    raise KeyError(f"unknown TPC-H table {name!r}")


# Value domains (spec §4.2.2-4.2.3) -----------------------------------------

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

NATIONS = (
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
)

MKT_SEGMENTS = (
    "AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD",
)

ORDER_PRIORITIES = (
    "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW",
)

SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")

SHIP_INSTRUCTS = (
    "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN",
)

RETURN_FLAGS = ("R", "A", "N")
LINE_STATUSES = ("O", "F")
ORDER_STATUSES = ("O", "F", "P")

# p_mfgr is Manufacturer#M and p_brand Brand#MN, M and N in 1..5.
MANUFACTURERS = 5
BRANDS_PER_MANUFACTURER = 5

TYPE_SYLLABLE_1 = ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
TYPE_SYLLABLE_2 = ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
TYPE_SYLLABLE_3 = ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")

CONTAINER_SYLLABLE_1 = ("SM", "LG", "MED", "JUMBO", "WRAP")
CONTAINER_SYLLABLE_2 = ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")

# Inclusive integer ranges.
P_SIZES = (1, 50)
LINES_PER_ORDER = (1, 7)  # l_linenumber runs 1..lines of its order
AVAIL_QTYS = (1, 9999)
SHIP_PRIORITIES = (0, 0)

PART_COLORS = (
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished",
    "chartreuse", "chiffon", "chocolate", "coral", "cornflower",
    "cornsilk", "cream", "cyan", "dark", "deep", "dim", "dodger", "drab",
    "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost",
    "goldenrod", "green", "grey", "honeydew", "hot", "hotpink", "indian",
    "ivory", "khaki", "lace", "lavender", "lawn", "lemon", "light",
    "lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight",
    "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange",
    "orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder",
    "puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
    "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow",
    "spring", "steel", "tan", "thistle", "tomato", "turquoise", "violet",
    "wheat", "white", "yellow",
)

# Date window (spec 4.2.3): orders span the full 7 years minus the
# 151-day lineitem tail; the "current date" used by l_returnflag is
# 1995-06-17.
START_DATE = "1992-01-01"
END_DATE = "1998-12-31"
CURRENT_DATE = "1995-06-17"
ORDER_DATE_TAIL_DAYS = 151
