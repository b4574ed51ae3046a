"""Ablations of AQUOMAN's design choices.

Each ablation turns one mechanism off and measures what it was buying:

- **page skipping** (Table Reader, Sec. VI-B) — stream every page vs
  skip fully-masked ones on a selective query;
- **the MonetDB join-index shortcut** (Sec. VI-D) — gather through the
  materialised FK RowIDs vs sort-merge the keys through device DRAM;
- **the OS page cache** (Sec. VIII-A) — the paper's observation that a
  128 GB LRU cache is useless against 1 TB scans;
- **selector-first filtering** (Sec. VI-A) — evaluate cheap CP terms
  before streaming the remaining columns vs streaming everything.
"""


from conftest import TARGET_SF, print_table
from repro.core import AquomanSimulator, DeviceConfig
from repro.engine.pagecache import LruPageCache
from repro.sqlir import AggFunc, col, lit, lit_date, scan
from repro.storage.layout import FlashLayout
from repro.tpch import query
from repro.util.units import GB


def _ratio(db):
    return TARGET_SF / db.scale_factor


def test_ablation_page_skipping(benchmark, db):
    """Selective date filter: page skip cuts the payload-column reads."""
    plan_selective = (
        scan("lineitem", ("l_shipdate", "l_extendedprice"))
        .filter(col("l_shipdate") == lit_date("1994-03-07"))
        .project(v=col("l_extendedprice"))
        .aggregate(aggs=[("s", AggFunc.SUM, col("v"))])
        .plan
    )

    def run():
        cfg = DeviceConfig(dram_bytes=40 * GB, scale_ratio=_ratio(db))
        return AquomanSimulator(db, cfg).run(plan_selective).trace

    trace = benchmark(run)

    # Without skipping, the device would stream both full columns.
    layout = FlashLayout(db)
    full_bytes = sum(
        layout.extent("lineitem", c).n_pages * 8192
        for c in ("l_shipdate", "l_extendedprice")
    )
    with_skip = trace.aquoman_flash_bytes
    print_table(
        "Ablation: Table Reader page skipping (one-day filter)",
        ["config", "flash bytes", "vs no-skip"],
        [
            ["no skipping", full_bytes, "1.00x"],
            ["with skipping", with_skip,
             f"{full_bytes / with_skip:.2f}x less"],
        ],
    )
    # The selector column is read in full; the payload column skips
    # most pages (one-day selectivity ~1/2500 rows; pages ~1000 rows).
    assert with_skip < full_bytes


def test_ablation_join_index(benchmark, db):
    """Q12's orders join: FK RowID gather vs sort-merge through DRAM."""

    def run():
        cfg = DeviceConfig(dram_bytes=40 * GB, scale_ratio=_ratio(db))
        with_index = AquomanSimulator(db, cfg).run(query(12)).trace

        # Ablate by filtering the orders side trivially, which makes
        # the scan non-bare and forfeits the shortcut.
        plan = query(12)
        from repro.sqlir.plan import Filter, Join

        join = next(n for n in plan.walk() if isinstance(n, Join))
        # The filter must actually drop a row, else the runtime notices
        # the orders side is still whole and keeps the shortcut.
        join.right = Filter(join.right, col("o_orderkey") >= lit(2))
        without_index = AquomanSimulator(db, cfg).run(plan).trace
        return with_index, without_index

    with_index, without_index = benchmark(run)
    print_table(
        "Ablation: MonetDB join-index shortcut on q12",
        ["config", "device DRAM peak (B, functional scale)",
         "sorter bytes"],
        [
            ["with join index", with_index.aquoman_dram_peak_bytes,
             with_index.aquoman_sorter_bytes],
            ["sort-merge", without_index.aquoman_dram_peak_bytes,
             without_index.aquoman_sorter_bytes],
        ],
    )
    assert with_index.aquoman_dram_peak_bytes == 0
    assert without_index.aquoman_dram_peak_bytes > 0
    assert without_index.aquoman_sorter_bytes > with_index.aquoman_sorter_bytes


def test_ablation_page_cache(benchmark):
    """The paper's cold-cache assumption: LRU against scans at scale.

    A cache holding 12.5% of the table sees zero hits across repeated
    sequential scans; a cache holding the whole working set sees ~100%.
    """

    def run():
        page = 8192
        big_scan = LruPageCache(capacity_bytes=1000 * page)
        for _ in range(3):
            big_scan.access_range(0, 8000)  # 8x the cache
        fitting = LruPageCache(capacity_bytes=10_000 * page)
        for _ in range(3):
            fitting.access_range(0, 8000)
        return big_scan.hit_rate, fitting.hit_rate

    scan_rate, fit_rate = benchmark(run)
    print_table(
        "Ablation: LRU page cache vs scan-dominated access",
        ["working set", "hit rate"],
        [
            ["8x cache (the 1 TB case)", f"{scan_rate:.0%}"],
            ["fits in cache", f"{fit_rate:.0%}"],
        ],
    )
    assert scan_rate == 0.0
    assert fit_rate > 0.6


def test_ablation_selector_first(benchmark, db):
    """Selector-first vs transform-everything on a selective filter.

    With the Row Selector absorbing the CP terms, almost no rows reach
    the Row Transformer; with the selector disabled (0 evaluators), the
    whole predicate — and therefore every row — goes through the PE
    pipeline.
    """
    plan = (
        scan("lineitem", ("l_shipdate", "l_quantity", "l_extendedprice"))
        .filter(
            (col("l_shipdate") == lit_date("1994-03-07"))
            & ((col("l_quantity") * 2) > col("l_quantity"))  # PE-only term
        )
        .project(v=col("l_extendedprice") * 2)
        .aggregate(aggs=[("s", AggFunc.SUM, col("v"))])
        .plan
    )

    def run():
        ratio = _ratio(db)
        with_selector = AquomanSimulator(
            db, DeviceConfig(dram_bytes=40 * GB, scale_ratio=ratio)
        ).run(plan)
        ablated_plan = (
            scan("lineitem",
                 ("l_shipdate", "l_quantity", "l_extendedprice"))
            .filter(
                (col("l_shipdate") == lit_date("1994-03-07"))
                & ((col("l_quantity") * 2) > col("l_quantity"))
            )
            .project(v=col("l_extendedprice") * 2)
            .aggregate(aggs=[("s", AggFunc.SUM, col("v"))])
            .plan
        )
        without = AquomanSimulator(
            db,
            DeviceConfig(
                dram_bytes=40 * GB,
                scale_ratio=ratio,
                n_predicate_evaluators=0,
            ),
        ).run(ablated_plan)
        return with_selector, without

    with_selector, without = benchmark(run)
    rows_with = with_selector.device.meters.rows_transformed
    rows_without = without.device.meters.rows_transformed
    print_table(
        "Ablation: Row Selector first-cut (one-day filter)",
        ["config", "rows through the transformer"],
        [
            ["4 CP evaluators", rows_with],
            ["no selector (all to PEs)", rows_without],
        ],
    )
    # Identical answers either way...
    assert with_selector.table.equals(without.table)
    # ...but the selector spares the transform pipeline most rows.
    assert rows_without > 10 * max(rows_with, 1)
