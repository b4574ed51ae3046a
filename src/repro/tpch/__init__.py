"""TPC-H: data generation (dbgen) and all 22 benchmark queries.

``generate(scale_factor)`` builds the eight-table catalog with
spec-conformant value domains and referential structure; ``query(n)``
plans query *n*'s SQL text (``TEXTS[n]``, the spec's query with its
validation parameters substituted, so results are deterministic).
"""

from repro.tpch.dbgen import generate
from repro.tpch.schema import TPCH_TABLES, TableSpec, table_cardinality
from repro.tpch.queries import ALL_QUERIES, TEXTS, query

__all__ = [
    "generate",
    "TPCH_TABLES",
    "TableSpec",
    "table_cardinality",
    "ALL_QUERIES",
    "TEXTS",
    "query",
]
