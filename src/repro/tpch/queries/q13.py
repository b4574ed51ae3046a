"""Q13 — Customer Distribution.

Histogram of customers by order count, excluding orders whose comment
matches '%special%requests%'.  The left-outer join's ``@matched`` flag
column stands in for SQL's NULL-aware count(o_orderkey).
"""

from repro.engine import MATCH_FLAG
from repro.sqlir import AggFunc, JoinKind, col, scan
from repro.sqlir.builder import desc
from repro.sqlir.expr import Like
from repro.sqlir.plan import Plan

NAME = "customer-distribution"


def build() -> Plan:
    plain_orders = scan("orders", ("o_orderkey", "o_custkey", "o_comment")).filter(
        Like(col("o_comment"), "%special%requests%", negated=True)
    ).project(o_orderkey=col("o_orderkey"), o_custkey=col("o_custkey"))

    return (
        scan("customer", ("c_custkey",))
        .join(
            plain_orders,
            "c_custkey",
            "o_custkey",
            kind=JoinKind.LEFT_OUTER,
        )
        .project(
            c_custkey=col("c_custkey"),
            matched=col(MATCH_FLAG),
        )
        .aggregate(
            keys=("c_custkey",),
            aggs=[("c_count", AggFunc.SUM, col("matched"))],
        )
        .aggregate(
            keys=("c_count",),
            aggs=[("custdist", AggFunc.COUNT, None)],
        )
        .sort(desc("custdist"), desc("c_count"))
        .plan
    )
