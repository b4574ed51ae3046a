"""All 22 TPC-H queries on the baseline engine: sanity + invariants.

Golden results don't exist for our (spec-approximate) dbgen, so the
checks are structural and semantic: shapes, orderings, value ranges and
cross-query consistency relations that must hold on *any* TPC-H
population.
"""

import pytest

from repro import tpch
from repro.engine import Engine
from repro.sqlir.plan import Scan


@pytest.fixture(scope="module")
def results(small_db):
    return {
        n: Engine(small_db).execute(tpch.query(n)) for n in tpch.ALL_QUERIES
    }


class TestAllQueriesRun:
    def test_every_query_builds_and_runs(self, results):
        assert set(results) == set(range(1, 23))

    def test_plans_are_fresh_objects(self):
        assert tpch.query(1) is not tpch.query(1)

    def test_query_number_out_of_range(self):
        for number in (0, 23):
            with pytest.raises(ValueError, match="1-22"):
                tpch.query(number)

    def test_only_expected_tables_scanned(self, small_db):
        for n in tpch.ALL_QUERIES:
            for node in tpch.query(n).walk():
                if isinstance(node, Scan):
                    assert node.table in small_db.tables


class TestQ1:
    def test_shape_and_order(self, results):
        out = results[1]
        assert out.nrows == 4  # (A,F), (N,F), (N,O), (R,F)
        flags = [(r[0], r[1]) for r in out.to_rows()]
        assert flags == sorted(flags)

    def test_aggregates_internally_consistent(self, results):
        for row in results[1].to_rows():
            (_, _, sum_qty, sum_base, sum_disc, sum_charge,
             avg_qty, avg_price, _, count) = row
            assert sum_disc <= sum_base
            assert sum_charge >= sum_disc
            assert avg_qty == pytest.approx(sum_qty / count)
            assert avg_price == pytest.approx(sum_base / count, rel=1e-9)

    def test_counts_cover_filtered_lineitems(self, results, small_db):
        total = sum(r[-1] for r in results[1].to_rows())
        li = small_db.table("lineitem")
        from repro.storage.types import date_to_days

        expected = int(
            (li.column("l_shipdate").values
             <= date_to_days("1998-09-02")).sum()
        )
        assert total == expected


class TestQ2:
    def test_is_min_cost_per_part(self, results):
        assert results[2].nrows <= 100
        assert "s_acctbal" in results[2].column_names

    def test_sorted_by_acctbal_desc(self, results):
        bal = [r[0] for r in results[2].to_rows()]
        assert bal == sorted(bal, reverse=True)


class TestQ3:
    def test_limit_10_and_revenue_desc(self, results):
        out = results[3]
        assert out.nrows <= 10
        rev = [r[1] for r in out.to_rows()]
        assert rev == sorted(rev, reverse=True)


class TestQ4:
    def test_priorities_sorted_and_bounded(self, results, small_db):
        out = results[4]
        assert out.nrows <= 5
        names = [r[0] for r in out.to_rows()]
        assert names == sorted(names)
        total_orders = small_db.table("orders").nrows
        assert sum(r[1] for r in out.to_rows()) <= total_orders


class TestQ5Q7Q8:
    def test_q5_asian_nations_only(self, results):
        from repro.tpch.schema import NATIONS

        asia = {n for n, rk in NATIONS if rk == 2}
        assert {r[0] for r in results[5].to_rows()} <= asia

    def test_q7_nation_pairs(self, results):
        pairs = {(r[0], r[1]) for r in results[7].to_rows()}
        assert pairs <= {("FRANCE", "GERMANY"), ("GERMANY", "FRANCE")}
        years = {r[2] for r in results[7].to_rows()}
        assert years <= {1995, 1996}

    def test_q8_share_is_a_fraction(self, results):
        for _, share in results[8].to_rows():
            assert 0.0 <= share <= 1.0


class TestQ6Q14Q19:
    def test_q6_single_cell_positive(self, results):
        out = results[6]
        assert out.nrows == 1
        assert out.to_rows()[0][0] > 0

    def test_q14_promo_percentage(self, results):
        value = results[14].to_rows()[0][0]
        assert 0 <= value <= 100

    def test_q19_nonnegative_revenue(self, results):
        assert results[19].to_rows()[0][0] >= 0


class TestQ9Q10:
    def test_q9_nation_year_order(self, results):
        rows = results[9].to_rows()
        keys = [(r[0], -r[1]) for r in rows]
        assert keys == sorted(keys)

    def test_q10_top20_by_revenue(self, results):
        out = results[10]
        assert out.nrows <= 20
        rev = [r[2] for r in out.to_rows()]
        assert rev == sorted(rev, reverse=True)


class TestQ11Q16:
    def test_q11_values_exceed_threshold(self, results):
        values = [r[1] for r in results[11].to_rows()]
        assert values == sorted(values, reverse=True)
        assert min(values) > 0

    def test_q16_supplier_counts_positive(self, results):
        counts = [r[-1] for r in results[16].to_rows()]
        assert all(c >= 1 for c in counts)
        assert counts == sorted(counts, reverse=True) or len(set(counts)) > 1


class TestQ12Q13:
    def test_q12_modes_and_counts(self, results, small_db):
        rows = results[12].to_rows()
        assert {r[0] for r in rows} <= {"MAIL", "SHIP"}

    def test_q13_histogram_covers_all_customers(self, results, small_db):
        total = sum(r[1] for r in results[13].to_rows())
        assert total == small_db.table("customer").nrows

    def test_q13_includes_zero_order_customers(self, results):
        counts = {r[0]: r[1] for r in results[13].to_rows()}
        assert 0 in counts  # custkey % 3 == 0 customers never order
        assert counts[0] >= 500 - 1  # 1/3 of 1500 customers


class TestQ15:
    def test_q15_is_the_max_revenue_supplier(self, results):
        rows = results[15].to_rows()
        assert len(rows) >= 1
        revs = {r[-1] for r in rows}
        assert len(revs) == 1  # all tie at the maximum


class TestQ17Q18:
    def test_q17_nonnegative(self, results):
        assert results[17].to_rows()[0][0] >= 0

    def test_q18_all_orders_over_300(self, results):
        for row in results[18].to_rows():
            assert row[-1] > 300


class TestQ20Q21Q22:
    def test_q20_sorted_supplier_names(self, results):
        names = [r[0] for r in results[20].to_rows()]
        assert names == sorted(names)

    def test_q21_counts_desc(self, results):
        counts = [r[1] for r in results[21].to_rows()]
        assert counts == sorted(counts, reverse=True)

    def test_q22_country_codes(self, results):
        codes = [r[0] for r in results[22].to_rows()]
        assert set(codes) <= {"13", "31", "23", "29", "30", "18", "17"}
        assert codes == sorted(codes)

    def test_q22_acctbal_positive(self, results):
        for _, numcust, total in results[22].to_rows():
            assert numcust > 0
            assert total > 0
