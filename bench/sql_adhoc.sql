-- The sql_adhoc workload: short statements whose cost is the fixed
-- per-query path (parse, plan, analysis gate, query scope, operator
-- dispatch), not the rows.  One statement per `-- name:` block, ended
-- by `;`.  Placeholders are filled from --seed, in file order, by
-- workloads.render_sql():
--   {int:LO:HI}    an integer in [LO, HI]
--   {dec:LO:HI}    a two-digit decimal in [LO, HI]
--   {date:LO:HI}   a date in [LO, HI]
--   {pick:A|B|C}   one of the alternatives
-- Ranges are narrow on purpose: the literals change with the seed (so
-- nothing keyed on SQL text carries over between seeds) while each
-- statement's selectivity, and with it the work it does, stays put.
-- Every statement runs, and returns rows, for every seed.

-- name: li_filter_sum
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= date '{date:1994-01-01:1994-03-31}'
  AND l_discount BETWEEN {dec:0.02:0.03} AND {dec:0.06:0.07}
  AND l_quantity < {int:24:28};

-- name: li_count_range
SELECT count(*) AS n, min(l_shipdate) AS first_ship,
       max(l_shipdate) AS last_ship
FROM lineitem
WHERE l_quantity BETWEEN {int:4:8} AND {int:38:42};

-- name: li_group_flags
SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
       avg(l_extendedprice) AS avg_price, count(*) AS n
FROM lineitem
WHERE l_shipdate <= date '{date:1998-06-01:1998-09-30}'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus;

-- name: li_group_shipmode
SELECT l_shipmode, count(*) AS n, sum(l_extendedprice) AS total
FROM lineitem
WHERE l_shipmode IN ('{pick:MAIL|SHIP|AIR}', '{pick:RAIL|TRUCK|FOB}',
                     'REG AIR')
  AND l_receiptdate >= date '{date:1994-01-01:1994-04-30}'
GROUP BY l_shipmode
ORDER BY l_shipmode;

-- name: li_project_arith
SELECT l_orderkey, l_linenumber,
       l_extendedprice * (1 - l_discount) * (1 + l_tax) AS charge
FROM lineitem
WHERE l_orderkey < {int:900:1100}
ORDER BY l_orderkey, l_linenumber
LIMIT {int:20:30};

-- name: li_instruct_like
SELECT l_shipinstruct, count(*) AS n
FROM lineitem
WHERE l_shipinstruct LIKE '{pick:DELIVER%|TAKE%|COLLECT%|%RETURN}'
  AND l_tax > {dec:0.02:0.03}
GROUP BY l_shipinstruct
ORDER BY l_shipinstruct;

-- name: li_ship_years
SELECT l_orderkey, l_linenumber,
       EXTRACT(YEAR FROM l_shipdate) AS ship_year, l_quantity
FROM lineitem
WHERE l_discount >= {dec:0.03:0.04}
  AND l_orderkey BETWEEN {int:400:600} AND {int:1900:2100}
ORDER BY l_orderkey, l_linenumber
LIMIT {int:25:35};

-- name: li_case_split
SELECT sum(CASE WHEN l_shipmode = '{pick:MAIL|SHIP|AIR|RAIL}'
                THEN l_extendedprice ELSE 0.00 END) AS picked,
       sum(l_extendedprice) AS total
FROM lineitem
WHERE l_commitdate < date '{date:1996-09-01:1996-12-31}';

-- name: ord_priority_hist
SELECT o_orderpriority, count(*) AS order_count
FROM orders
WHERE o_orderdate >= date '{date:1994-01-01:1994-04-30}'
  AND o_orderdate < date '{date:1997-01-01:1997-04-30}'
GROUP BY o_orderpriority
ORDER BY o_orderpriority;

-- name: ord_top_price
SELECT o_orderkey, o_custkey, o_totalprice
FROM orders
WHERE o_orderstatus = '{pick:F|O}'
  AND o_totalprice > {dec:30000.00:40000.00}
ORDER BY o_totalprice DESC, o_orderkey
LIMIT {int:12:18};

-- name: ord_clerk_not_like
SELECT count(*) AS n, avg(o_totalprice) AS avg_price
FROM orders
WHERE o_comment NOT LIKE '%{pick:special|pending|unusual|express}%'
  AND o_shippriority = 0;

-- name: cust_segment_bal
SELECT c_mktsegment, count(*) AS n, avg(c_acctbal) AS avg_bal,
       max(c_acctbal) AS max_bal
FROM customer
WHERE c_acctbal > {dec:1500.00:2500.00}
GROUP BY c_mktsegment
ORDER BY c_mktsegment;

-- name: cust_phone_prefix
SELECT c_custkey, SUBSTRING(c_phone FROM 1 FOR 2) AS cntrycode, c_acctbal
FROM customer
WHERE c_nationkey BETWEEN {int:3:5} AND {int:17:19}
ORDER BY c_acctbal DESC, c_custkey
LIMIT {int:15:20};

-- name: part_brand_sizes
SELECT p_brand, count(*) AS n, min(p_retailprice) AS cheapest
FROM part
WHERE p_size IN ({int:1:10}, {int:11:20}, {int:21:30}, {int:31:40},
                 {int:41:50})
  AND p_type NOT LIKE '{pick:MEDIUM POLISHED|SMALL PLATED|PROMO BRUSHED}%'
GROUP BY p_brand
ORDER BY n DESC, p_brand
LIMIT {int:8:12};

-- name: part_container_price
SELECT p_container, avg(p_retailprice) AS avg_price, count(*) AS n
FROM part
WHERE p_container LIKE '{pick:SM|MED|LG|JUMBO|WRAP}%'
GROUP BY p_container
ORDER BY p_container;

-- name: supp_balance_rank
SELECT s_suppkey, s_name, s_acctbal
FROM supplier
WHERE s_acctbal BETWEEN {dec:400.00:900.00} AND {dec:7000.00:7500.00}
ORDER BY s_acctbal DESC, s_suppkey
LIMIT {int:6:9};

-- name: ps_value_by_supp
SELECT ps_suppkey, sum(ps_supplycost * ps_availqty) AS stock_value
FROM partsupp
WHERE ps_availqty > {int:2800:3200}
GROUP BY ps_suppkey
ORDER BY stock_value DESC, ps_suppkey
LIMIT {int:10:14};

-- name: join_ord_cust_segment
SELECT c_mktsegment, count(*) AS n, sum(o_totalprice) AS total
FROM orders, customer
WHERE o_custkey = c_custkey
  AND o_orderdate >= date '{date:1995-07-01:1995-10-31}'
  AND c_acctbal > {dec:1200.00:1800.00}
GROUP BY c_mktsegment
ORDER BY c_mktsegment;

-- name: join_li_ord_priority
SELECT o_orderpriority, count(*) AS n
FROM lineitem, orders
WHERE l_orderkey = o_orderkey
  AND l_shipmode = '{pick:MAIL|SHIP|TRUCK}'
  AND l_commitdate < l_receiptdate
  AND o_orderdate < date '{date:1996-01-01:1996-04-30}'
GROUP BY o_orderpriority
ORDER BY o_orderpriority;

-- name: join_li_part_promo
SELECT sum(CASE WHEN p_type LIKE 'PROMO%'
                THEN l_extendedprice * (1 - l_discount)
                ELSE 0.00 END) AS sum_promo,
       sum(l_extendedprice * (1 - l_discount)) AS sum_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= date '{date:1994-03-01:1994-06-30}'
  AND l_shipdate < date '{date:1997-03-01:1997-06-30}';

-- name: join_ps_supp_nation
SELECT s_nationkey, count(*) AS n, min(ps_supplycost) AS min_cost
FROM partsupp, supplier
WHERE ps_suppkey = s_suppkey
  AND s_acctbal > {dec:2000.00:2600.00}
GROUP BY s_nationkey
ORDER BY s_nationkey;

-- name: join3_cust_ord_li
SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem
WHERE c_mktsegment = '{pick:BUILDING|MACHINERY|AUTOMOBILE|FURNITURE}'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < date '{date:1995-02-01:1995-04-30}'
  AND l_shipdate > date '{date:1994-09-01:1994-11-30}'
GROUP BY l_orderkey
ORDER BY revenue DESC, l_orderkey
LIMIT {int:10:14};

-- name: join3_supp_nation_region
SELECT r_name, count(*) AS n, avg(s_acctbal) AS avg_bal
FROM supplier, nation, region
WHERE s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND s_acctbal > {dec:-200.00:300.00}
GROUP BY r_name
ORDER BY r_name;

-- name: join3_li_supp_nation
SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, supplier, nation
WHERE l_suppkey = s_suppkey
  AND s_nationkey = n_nationkey
  AND l_shipdate BETWEEN date '{date:1993-10-01:1994-01-31}'
                     AND date '{date:1996-10-01:1997-01-31}'
GROUP BY n_name
ORDER BY revenue DESC, n_name
LIMIT {int:12:18};
