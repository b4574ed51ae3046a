"""SQL parser and planner: syntax, planning, end-to-end equivalence."""

import numpy as np
import pytest

from repro import tpch
from repro.engine import Engine
from repro.sqlir import (
    PlanningError,
    SqlSyntaxError,
    parse_sql,
    plan_sql,
)
from repro.sqlir.expr import (
    BoolExpr,
    CaseWhen,
    ExtractYear,
    Substring,
)
from repro.sqlir.parser import MAX_NESTING, AggCall, Subquery
from repro.sqlir.plan import Aggregate, Filter, Join, JoinKind, Project, Scan
from repro.sqlir.planner import KEY_COMBINE, _flatten_and

COUNT_LINEITEM = "SELECT count(*) AS n FROM lineitem"
DEEP = "nested deeper than"
# Malformed or oversized SQL: each must raise the front end's own typed
# error, never a RecursionError / ValueError / KeyError from below it.
HOSTILE_SQL = {
    "150 nested parentheses": (SqlSyntaxError, DEEP, "SELECT "
                               + "(" * 150 + "l_quantity" + ")" * 150
                               + " AS x FROM lineitem"),
    "1000 NOTs": (SqlSyntaxError, DEEP, f"{COUNT_LINEITEM} WHERE "
                  + "NOT " * 1000 + "l_quantity > 0"),
    "1000 unary minuses": (SqlSyntaxError, DEEP, "SELECT " + "- " * 1000
                           + "l_quantity AS x FROM lineitem"),
    "impossible date": (SqlSyntaxError, "bad DATE literal '1994-13-45'",
                        f"{COUNT_LINEITEM} WHERE l_shipdate < "
                        "DATE '1994-13-45'"),
    "year-only date": (SqlSyntaxError, "bad DATE literal '1994'",
                       f"{COUNT_LINEITEM} WHERE l_shipdate < DATE '1994'"),
    "non-numeric interval": (SqlSyntaxError, "bad INTERVAL literal 'x'",
                             f"{COUNT_LINEITEM} WHERE l_shipdate < DATE "
                             "'1994-01-01' + INTERVAL 'x' DAY"),
    "fractional limit": (SqlSyntaxError, "expected an integer",
                         "SELECT l_quantity FROM lineitem LIMIT 1.5"),
    "unknown table": (PlanningError, "no table 'nope'",
                      "SELECT count(*) AS n FROM nope"),
    "nested aggregate": (SqlSyntaxError, "do not nest",
                         "SELECT sum(sum(l_quantity)) AS s FROM lineitem"),
    "many-row scalar": (PlanningError, "one aggregate", f"{COUNT_LINEITEM} "
                        "WHERE l_tax > (SELECT l_tax FROM lineitem)"),
    "two-column scalar": (PlanningError, "one aggregate", f"{COUNT_LINEITEM}"
                          " WHERE l_tax > (SELECT max(l_tax), min(l_tax) "
                          "FROM lineitem)"),
    "uncorrelated EXISTS": (PlanningError, "correlated equality",
                            f"{COUNT_LINEITEM} WHERE EXISTS "
                            "(SELECT * FROM orders)"),
    "aggregate in WHERE": (PlanningError, "SELECT and HAVING",
                           f"{COUNT_LINEITEM} WHERE sum(l_tax) > 1"),
    "WHERE on the outer join's nullable side": (
        PlanningError, "nullable side", "SELECT count(*) AS n FROM customer "
        "LEFT OUTER JOIN orders ON c_custkey = o_custkey "
        "WHERE o_totalprice > 5"),
}


class TestParser:
    def test_minimal_select(self):
        stmt = parse_sql("SELECT a FROM t")
        assert [(f.table, f.alias) for f in stmt.tables] == [("t", "t")]
        assert stmt.items[0].alias == "a"

    def test_alias_and_case_insensitive_keywords(self):
        stmt = parse_sql("select A as x from T t1 where A > 3")
        assert stmt.items[0].alias == "x"
        assert [(f.table, f.alias) for f in stmt.tables] == [("T", "t1")]
        assert stmt.where is not None

    def test_aggregates(self):
        stmt = parse_sql(
            "SELECT sum(a) AS s, count(*) AS n, avg(b) AS m, "
            "count(distinct c) AS d FROM t"
        )
        funcs = [i.expr.func.value for i in stmt.items]
        assert funcs == ["sum", "count", "avg", "count_distinct"]

    def test_string_literal_with_escape(self):
        stmt = parse_sql("SELECT a FROM t WHERE s = 'it''s'")
        assert stmt.where.right.raw == "it's"

    def test_date_literal(self):
        stmt = parse_sql("SELECT a FROM t WHERE d >= date '1994-01-01'")
        assert stmt.where.right.raw == 8766  # epoch days

    def test_between_expands_to_range(self):
        stmt = parse_sql("SELECT a FROM t WHERE a BETWEEN 1 AND 5")
        assert isinstance(stmt.where, BoolExpr)

    def test_not_between(self):
        stmt = parse_sql("SELECT a FROM t WHERE a NOT BETWEEN 1 AND 5")
        assert stmt.where.op.value == "not"

    def test_like_and_in(self):
        stmt = parse_sql(
            "SELECT a FROM t WHERE s LIKE '%x%' AND m IN ('A', 'B') "
            "AND k NOT IN (1, 2)"
        )
        conj = stmt.where
        assert isinstance(conj, BoolExpr)

    def test_case_when(self):
        stmt = parse_sql(
            "SELECT sum(CASE WHEN a > 1 THEN b ELSE 0 END) AS s FROM t"
        )
        assert isinstance(stmt.items[0].expr.arg, CaseWhen)

    def test_extract_and_substring(self):
        stmt = parse_sql(
            "SELECT extract(year FROM d) AS y, "
            "substring(p FROM 1 FOR 2) AS cc FROM t"
        )
        assert isinstance(stmt.items[0].expr, ExtractYear)
        assert isinstance(stmt.items[1].expr, Substring)

    def test_order_and_limit(self):
        stmt = parse_sql(
            "SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 7"
        )
        assert stmt.order_by[0].ascending is False
        assert stmt.order_by[1].ascending is True
        assert stmt.limit == 7

    def test_operator_precedence(self):
        stmt = parse_sql("SELECT a + b * c AS x FROM t")
        expr = stmt.items[0].expr
        assert expr.op.value == "+"
        assert expr.right.op.value == "*"

    def test_parenthesised_or(self):
        stmt = parse_sql(
            "SELECT a FROM t WHERE (a = 1 OR a = 2) AND b = 3"
        )
        assert stmt.where.op.value == "and"

    def test_qualified_columns(self):
        stmt = parse_sql(
            "SELECT o.o_orderkey AS k FROM orders o WHERE o.o_orderkey = 1"
        )
        ref = stmt.items[0].expr
        assert (ref.qualifier, ref.name) == ("o", "o_orderkey")

    def test_subqueries(self):
        stmt = parse_sql(
            "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.k = a) "
            "AND NOT EXISTS (SELECT * FROM u) AND b IN (SELECT c FROM u) "
            "AND d NOT IN (SELECT c FROM u) AND e > (SELECT max(c) FROM u)"
        )
        kinds = [
            (c.kind, c.negated) if isinstance(c, Subquery)
            else (c.right.kind, c.right.negated)
            for c in stmt.where.args
        ]
        assert kinds == [("exists", False), ("exists", True), ("in", False),
                         ("in", True), ("scalar", False)]
        assert stmt.where.args[0].query.items == []   # SELECT *

    def test_from_forms(self):
        stmt = parse_sql(
            "WITH v AS (SELECT k FROM u) "
            "SELECT a FROM t LEFT OUTER JOIN u ON t.k = u.k, v, "
            "(SELECT k FROM w) AS d"
        )
        t, u, v, d = stmt.tables
        assert (t.table, u.table, u.outer_on is not None) == ("t", "u", True)
        assert v.query is not None and v.alias == "v"
        assert d.query.tables[0].table == "w" and d.alias == "d"

    def test_aggregates_inside_expressions(self):
        stmt = parse_sql("SELECT 100 * sum(a) / sum(b) AS r FROM t")
        calls = (stmt.items[0].expr.left.right, stmt.items[0].expr.right)
        assert all(isinstance(c, AggCall) for c in calls)

    def test_conjunctions_are_flat(self):
        where = " AND ".join(f"a > {i}" for i in range(1000))
        stmt = parse_sql(f"SELECT a FROM t WHERE {where}")
        assert stmt.where.op.value == "and" and len(stmt.where.args) == 1000

    def test_syntax_errors(self):
        for bad in (
            "SELECT",
            "SELECT a",
            "SELECT a FROM t WHERE",
            "SELECT a FROM t GROUP a",
            "SELECT a FROM t trailing junk (",
            "SELECT a FROM t; SELECT b FROM t",
        ):
            with pytest.raises(SqlSyntaxError):
                parse_sql(bad)

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            parse_sql("SELECT a FROM t WHERE a = @")

    def test_nesting_limit_is_exact(self):
        def nested(n):
            return "SELECT " + "(" * n + "a" + ")" * n + " AS x FROM t"

        # the select item is one level, each parenthesis one more
        parse_sql(nested(MAX_NESTING - 1))
        with pytest.raises(SqlSyntaxError, match=DEEP):
            parse_sql(nested(MAX_NESTING))


class TestPlanner:
    def test_single_table_shape(self, small_db):
        plan = plan_sql(
            "SELECT l_orderkey AS k FROM lineitem WHERE l_quantity > 10",
            small_db,
        )
        kinds = [type(n).__name__ for n in plan.walk()]
        assert kinds == ["Scan", "Filter", "Project"]

    def test_scan_columns_pruned(self, small_db):
        plan = plan_sql(
            "SELECT l_orderkey AS k FROM lineitem WHERE l_quantity > 10",
            small_db,
        )
        scan_node = next(n for n in plan.walk() if isinstance(n, Scan))
        assert set(scan_node.columns) == {"l_orderkey", "l_quantity"}

    def test_join_order_from_edges(self, small_db):
        plan = plan_sql(
            "SELECT o_orderkey AS k FROM orders, customer "
            "WHERE o_custkey = c_custkey AND c_acctbal > 0",
            small_db,
        )
        joins = [n for n in plan.walk() if isinstance(n, Join)]
        assert len(joins) == 1

    def test_filters_pushed_below_join(self, small_db):
        plan = plan_sql(
            "SELECT o_orderkey AS k FROM orders, customer "
            "WHERE o_custkey = c_custkey AND c_acctbal > 0",
            small_db,
        )
        join = next(n for n in plan.walk() if isinstance(n, Join))
        assert isinstance(join.right, Filter)  # the acctbal pushdown

    def test_cross_join_rejected(self, small_db):
        with pytest.raises(PlanningError, match="equi-join"):
            plan_sql("SELECT o_orderkey AS k FROM orders, customer",
                     small_db)

    def test_unknown_column(self, small_db):
        with pytest.raises(PlanningError, match="not found"):
            plan_sql("SELECT nope FROM orders", small_db)

    def test_ambiguous_column_names(self, small_db):
        # No TPC-H pair collides, so craft one via the same table twice.
        with pytest.raises(PlanningError, match="ambiguous"):
            plan_sql(
                "SELECT o_orderkey AS k FROM orders, orders "
                "WHERE o_orderkey = o_orderkey",
                small_db,
            )

    @pytest.mark.parametrize(
        "error,match,sql", HOSTILE_SQL.values(), ids=list(HOSTILE_SQL)
    )
    def test_hostile_sql_raises_a_typed_error(
        self, tiny_db, error, match, sql
    ):
        with pytest.raises(error, match=match):
            plan_sql(sql, tiny_db)

    def test_thousand_conjuncts_flatten_in_order(self):
        where = " AND ".join(f"l_quantity > {i}" for i in range(1000))
        stmt = parse_sql(f"{COUNT_LINEITEM} WHERE {where}")
        conjuncts = _flatten_and(stmt.where)
        assert [c.right.raw for c in conjuncts] == list(range(1000))

    def test_bare_output_must_be_group_key(self, small_db):
        with pytest.raises(PlanningError, match="GROUP BY"):
            plan_sql(
                "SELECT o_orderkey, count(*) AS n FROM orders",
                small_db,
            )


def _nodes(plan, kind):
    return [n for n in plan.walk() if isinstance(n, kind)]


class TestPlannerRules:
    """The three shape rules, on the TPC-H texts that exercise them."""

    def test_one_filter_per_table_as_one_flat_and(self):
        plan = tpch.query(6)
        (only,) = _nodes(plan, Filter)
        assert isinstance(only.child, Scan)
        assert only.predicate.op.value == "and"
        # shipdate >=, shipdate <, discount BETWEEN (two), quantity <
        assert [c.left.name for c in only.predicate.args] == [
            "l_shipdate", "l_shipdate", "l_discount", "l_discount",
            "l_quantity",
        ]

    def test_aggregate_inputs_projected_once_each(self):
        pre = _nodes(tpch.query(1), Project)[0]
        assert isinstance(pre.child, Filter)
        # 2 keys, 2 bare columns reused by two aggregates each, two
        # computed inputs and l_discount: 7 columns, not 10
        assert len(pre.outputs) == 7

    def test_dimension_subtrees_on_the_build_side(self):
        top = _nodes(tpch.query(3), Join)[-1]
        assert isinstance(top.left, Filter)
        assert top.left.child.table == "lineitem"
        assert isinstance(top.right, Join)          # orders ⋈ customer
        assert {n.table for n in _nodes(top.right, Scan)} == {
            "orders", "customer"}

    def test_cycle_edge_is_the_join_residual(self):
        plan = tpch.query(5)
        residuals = [j.residual for j in _nodes(plan, Join)
                     if j.residual is not None]
        assert [repr(r) for r in residuals] == [
            "(col('c_nationkey') == col('s_nationkey'))"]
        # nothing above the joins filters
        assert all(isinstance(f.child, Scan) for f in _nodes(plan, Filter))

    def test_two_equalities_make_a_composite_key(self):
        (join,) = [j for j in _nodes(tpch.query(9), Join)
                   if j.left_key.endswith("key") and "@" in j.left_key]
        keys = [dict(p.outputs)[k] for p, k in (
            (join.left, join.left_key), (join.right, join.right_key))]
        assert [repr(k) for k in keys] == [
            f"((col('{a}') * lit({KEY_COMBINE}, int, s=0)) + "
            f"col('{b}'))"
            for a, b in (("l_partkey", "l_suppkey"),
                         ("ps_partkey", "ps_suppkey"))
        ]
        # the lineitem side keeps only what the query still reads
        assert "l_partkey" not in dict(join.left.outputs)

    def test_correlated_scalar_is_a_grouped_subplan(self):
        plan = tpch.query(17)
        grouped = [j for j in _nodes(plan, Join)
                   if isinstance(j.right, Project)][0]
        aggregate = grouped.right.child
        assert isinstance(aggregate, Aggregate)
        assert aggregate.keys == ("l_partkey",)    # the correlation column
        above = next(n for n in plan.walk()
                     if isinstance(n, Filter) and n.child is grouped)
        assert "<" in repr(above.predicate)

    def test_subqueries_become_semi_and_anti_joins(self):
        kinds = [j.kind for j in _nodes(tpch.query(21), Join)]
        assert kinds.count(JoinKind.SEMI) == kinds.count(JoinKind.ANTI) == 1
        semi = next(j for j in _nodes(tpch.query(21), Join)
                    if j.kind is JoinKind.SEMI)
        assert repr(semi.residual) == (
            "(col('l2.l_suppkey') != col('l_suppkey'))")

    def test_in_subquery_joins_the_table_it_filters(self):
        # Q18's IN (… HAVING …) reduces orders before orders joins
        semi = next(j for j in _nodes(tpch.query(18), Join)
                    if j.kind is JoinKind.SEMI)
        assert semi.left.table == "orders"

    def test_implied_in_list_prefilters_each_side(self):
        filters = [f for f in _nodes(tpch.query(7), Filter)
                   if isinstance(f.child, Scan)
                   and f.child.table == "nation"]
        assert len(filters) == 2
        assert all("in ('" in repr(f.predicate) for f in filters)

    def test_thousand_conjuncts_run_on_every_path(self, tiny_db):
        from repro.core import AquomanSimulator, DeviceConfig
        from repro.engine import MorselConfig

        sql = COUNT_LINEITEM + " WHERE " + " AND ".join(
            f"l_quantity > {i % 40}" for i in range(1000))
        quantity = tiny_db.table("lineitem").column("l_quantity").values
        want = [(int((quantity > 3900).sum()),)]
        plan = plan_sql(sql, tiny_db)
        assert len(_nodes(plan, Filter)) == 1
        morsels = MorselConfig(parallel=True, morsel_rows=1024,
                               n_workers=1, worker_backend="serial")
        for engine in (Engine(tiny_db, analyze="strict"),
                       Engine(tiny_db, analyze="strict", morsels=morsels)):
            assert engine.execute(plan_sql(sql, tiny_db)).to_rows() == want
        device = AquomanSimulator(tiny_db, DeviceConfig()).run(
            plan_sql(sql, tiny_db), "conjuncts")
        assert device.table.to_rows() == want


class TestEndToEnd:
    def test_count_distinct_of_fractional_floats(self, tiny_db):
        # l_quantity / 7 is a FLOAT: distinct quotients are distinct
        # quantities, none of them whole numbers to be truncated into.
        sql = """
        SELECT l_returnflag, count(distinct l_quantity / 7) AS d
        FROM lineitem
        GROUP BY l_returnflag
        """
        out = Engine(tiny_db).execute(plan_sql(sql, tiny_db))
        lineitem = tiny_db.table("lineitem")
        flags = lineitem.column("l_returnflag")
        names = flags.heap.strings()
        quantities = {}
        for code, q in zip(flags.values.tolist(),
                           lineitem.column("l_quantity").values.tolist()):
            quantities.setdefault(names[code], set()).add(q)
        assert dict(out.to_rows()) == {
            flag: len(qs) for flag, qs in quantities.items()
        }
        assert min(len(qs) for qs in quantities.values()) == 50

    def test_sql_plans_offload_like_builder_plans(self, small_db):
        from repro.core import AquomanSimulator, DeviceConfig
        from repro.util.units import GB

        sql = """
        SELECT sum(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= date '1994-01-01'
          AND l_shipdate < date '1995-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24
        """
        config = DeviceConfig(dram_bytes=40 * GB, scale_ratio=1e5)
        plan = plan_sql(sql, small_db)
        result = AquomanSimulator(small_db, config).run(plan, query="q6sql")
        baseline = Engine(small_db).execute(plan_sql(sql, small_db))
        assert baseline.equals(result.table.renamed("result"))
        assert result.trace.offload_fraction_rows > 0.99

    def test_q14_style_case_when(self, small_db):
        sql = """
        SELECT 100 * sum(CASE WHEN p_type LIKE 'PROMO%'
                              THEN l_extendedprice * (1 - l_discount)
                              ELSE 0.00 END)
                   / sum(l_extendedprice * (1 - l_discount))
               AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND l_shipdate >= date '1995-09-01'
          AND l_shipdate < date '1995-10-01'
        """
        (promo_revenue,), = Engine(small_db).execute(
            plan_sql(sql, small_db)).to_rows()
        # the same number straight from the columns
        li, part = small_db.table("lineitem"), small_db.table("part")
        days = li.column("l_shipdate").values
        rows = (days >= 9374) & (days < 9404)
        price = li.column("l_extendedprice").values[rows] / 100
        revenue = price * (1 - li.column("l_discount").values[rows] / 100)
        keys = part.column("p_partkey").values
        at = np.searchsorted(keys, li.column("l_partkey").values[rows])
        types = part.column("p_type")
        promo = np.array([
            t.startswith("PROMO") for t in types.heap.decode_many(
                types.values[at])
        ])
        assert promo_revenue == pytest.approx(
            100 * revenue[promo].sum() / revenue.sum(), rel=1e-9
        )

    @pytest.mark.parametrize("negated", [False, True])
    def test_in_list_option_finer_than_the_column(self, small_db, negated):
        """An IN option the column cannot hold matches no row — as
        ``=`` sees it — on the host, the morsel path and the device."""
        from repro.core import AquomanSimulator, DeviceConfig
        from repro.engine import MorselConfig
        from repro.perf.trace import QueryTrace

        def count(where: str) -> dict[str, int]:
            plan = plan_sql(
                f"SELECT count(*) AS n FROM lineitem WHERE {where}",
                small_db,
            )
            trace = QueryTrace()
            streamed = Engine(
                small_db, trace, morsels=MorselConfig(morsel_rows=8192)
            ).execute(plan)
            assert trace.flash_pages_read  # the span path ran
            device = AquomanSimulator(small_db, DeviceConfig()).run(plan)
            return {
                path: table.to_rows()[0][0]
                for path, table in (
                    ("host", Engine(small_db).execute(plan)),
                    ("morsel", streamed),
                    ("device", device.table),
                )
            }

        nrows = small_db.table("lineitem").nrows
        quantities = small_db.table("lineitem").column("l_quantity").values
        ones = int(np.count_nonzero(quantities == 100))
        assert 0 < ones < nrows
        not_ = "NOT " if negated else ""
        expected = nrows if negated else 0
        assert count(f"l_quantity {not_}IN (1.005)") == dict.fromkeys(
            ("host", "morsel", "device"), expected
        )
        op = "<>" if negated else "="
        assert count(f"l_quantity {op} 1.005")["host"] == expected
        # Extra digits that are zeros lose nothing.
        assert count(f"l_quantity {not_}IN (1.000, 1.005)") == dict.fromkeys(
            ("host", "morsel", "device"), nrows - ones if negated else ones
        )
        # More digits than a float holds are read exactly, not rounded
        # onto 1.00.
        assert count(
            f"l_quantity {not_}IN (1.0000000000000000001)"
        ) == dict.fromkeys(("host", "morsel", "device"), expected)


# Comparisons with numeric literals int64 cannot hold — a raw value
# beyond it, or a scale whose factor is — keyed by what each shows:
# (WHERE clause, column, the rows it keeps from the column's raw values).
WIDE_LITERAL_COMPARES = {
    "IN option beyond int64": (
        "l_linenumber IN (99999999999999999999999)", "l_linenumber",
        lambda v: np.zeros(len(v), dtype=bool)),
    "= at a scale beyond int64": (
        "l_linenumber = 0.00000000000000000001", "l_linenumber",
        lambda v: np.zeros(len(v), dtype=bool)),
    "> at a scale beyond int64": (
        "l_linenumber > 0.0000000000000000001", "l_linenumber",
        lambda v: v > 0),
    "<= floors at the column's scale": (
        "l_linenumber <= 3.0000000000000000001", "l_linenumber",
        lambda v: v <= 3),
    "= raw beyond int64": (
        "l_quantity = 1.0000000000000000000001", "l_quantity",
        lambda v: np.zeros(len(v), dtype=bool)),
    "< raw beyond int64": (
        "l_quantity < 1.0000000000000000000001", "l_quantity",
        lambda v: v <= 100),
    ">= raw beyond int64": (
        "l_quantity >= 1.0000000000000000000001", "l_quantity",
        lambda v: v > 100),
}


class TestLiteralsBeyondInt64:
    @pytest.mark.parametrize(
        "where,column,keeps", WIDE_LITERAL_COMPARES.values(),
        ids=list(WIDE_LITERAL_COMPARES),
    )
    def test_compares_exactly_on_every_path(
        self, small_db, where, column, keeps
    ):
        from repro.core import AquomanSimulator, DeviceConfig
        from repro.engine import MorselConfig
        from repro.perf.trace import QueryTrace

        plan = plan_sql(f"{COUNT_LINEITEM} WHERE {where}", small_db)
        trace = QueryTrace()
        streamed = Engine(
            small_db, trace, morsels=MorselConfig(morsel_rows=8192)
        ).execute(plan)
        assert trace.flash_pages_read  # the span path ran
        device = AquomanSimulator(small_db, DeviceConfig()).run(plan)
        counts = {
            path: table.to_rows()[0][0]
            for path, table in (
                ("host", Engine(small_db).execute(plan)),
                ("morsel", streamed),
                ("device", device.table),
            )
        }
        values = small_db.table("lineitem").column(column).values
        expected = int(np.count_nonzero(keeps(values)))
        assert counts == dict.fromkeys(("host", "morsel", "device"), expected)

    @pytest.mark.parametrize("select,literal", [
        ("l_linenumber + 99999999999999999999999",
         "99999999999999999999999"),
        ("l_linenumber * 0.00000000000000000001",
         "0.00000000000000000001"),
        ("-99999999999999999999999 + l_linenumber",
         "99999999999999999999999"),
        ("99999999999999999999999", "99999999999999999999999"),
    ])
    def test_a_computed_value_names_the_literal(
        self, small_db, select, literal
    ):
        with pytest.raises((PlanningError, SqlSyntaxError), match=literal):
            plan_sql(f"SELECT {select} AS x FROM lineitem", small_db)

    def test_two_literals_must_fit_to_compare(self, small_db):
        with pytest.raises(SqlSyntaxError, match="99999999999999999999999"):
            plan_sql(
                f"{COUNT_LINEITEM} WHERE 99999999999999999999999 > 1",
                small_db,
            )
