"""The AQUOMAN simulator: functional equivalence and trace behaviour.

The central correctness property of the whole reproduction: for every
TPC-H query, hybrid device+host execution returns *bit-identical*
results to the pure-software baseline.
"""

from collections import Counter

import numpy as np
import pytest

import repro.core.compiler as compiler_module
import repro.core.dataflow as dataflow_module
import repro.core.device as device_module
from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.core.compiler import SuspendReason
from repro.core.device import ROWID, AquomanDevice
from repro.core.simulator import DeviceExecutor
from repro.core.tabletask import TableTask
from repro.engine import Engine
from repro.engine.relation import Relation
from repro.sqlir.expr import Kind, TypedArray
from repro.sqlir import AggFunc, JoinKind, col, lit, lit_date, scan
from repro.sqlir.plan import Scan
from repro.storage.layout import PAGE_BYTES
from repro.util.units import GB, MB

SF1000_RATIO = 1000 / 0.01


@pytest.fixture(scope="module")
def config():
    return DeviceConfig(dram_bytes=40 * GB, scale_ratio=SF1000_RATIO)


class TestEquivalence:
    @pytest.mark.parametrize("number", tpch.ALL_QUERIES)
    def test_query_matches_baseline(self, small_db, config, number):
        baseline = Engine(small_db).execute(tpch.query(number))
        result = AquomanSimulator(small_db, config).run(
            tpch.query(number), query=f"q{number:02d}"
        )
        assert baseline.equals(result.table.renamed("result")), (
            f"q{number:02d} diverged from the software baseline"
        )


class TestOffloadBehaviour:
    def test_q6_fully_offloaded(self, small_db, config):
        result = AquomanSimulator(small_db, config).run(
            tpch.query(6), query="q06"
        )
        trace = result.trace
        assert trace.offload_fraction_rows > 0.99
        assert trace.aquoman_flash_bytes > 0
        assert not trace.suspended

    def test_q9_stays_on_host(self, small_db, config):
        result = AquomanSimulator(small_db, config).run(
            tpch.query(9), query="q09"
        )
        assert result.trace.offload_fraction_rows < 0.1
        assert SuspendReason.STRING_HEAP in result.suspend_reasons

    def test_q18_device_assisted_aggregate(self, small_db, config):
        result = AquomanSimulator(small_db, config).run(
            tpch.query(18), query="q18"
        )
        assisted = [op for op in result.trace.ops if op.assisted]
        assert assisted, "the mid-plan group-by should be device-assisted"
        assert result.trace.aquoman_flash_bytes > 0
        assert result.trace.groupby_spill_groups > 0

    def test_q21_dram_usage_between_16_and_40gb(self, small_db, config):
        result = AquomanSimulator(small_db, config).run(
            tpch.query(21), query="q21"
        )
        scaled_peak = (
            result.trace.aquoman_dram_peak_bytes * SF1000_RATIO
        )
        assert 16 * GB < scaled_peak <= 40 * GB

    def test_q21_suspends_at_16gb(self, small_db):
        cfg16 = DeviceConfig(dram_bytes=16 * GB, scale_ratio=SF1000_RATIO)
        result = AquomanSimulator(small_db, cfg16).run(
            tpch.query(21), query="q21"
        )
        assert SuspendReason.DRAM_EXCEEDED in result.suspend_reasons
        baseline = Engine(small_db).execute(tpch.query(21))
        assert baseline.equals(result.table.renamed("result"))

    def test_fourteen_ish_queries_mostly_offloaded(self, small_db, config):
        high = 0
        for n in tpch.ALL_QUERIES:
            result = AquomanSimulator(small_db, config).run(
                tpch.query(n), query=f"q{n:02d}"
            )
            if result.trace.offload_fraction_rows > 0.9:
                high += 1
        assert 12 <= high <= 17  # the paper offloads 14 of 22 fully

    def test_page_skipping_reduces_traffic(self, small_db, config):
        # A selective filter must stream fewer bytes than a full scan of
        # the projected column.
        selective = (
            scan("lineitem", ("l_shipdate", "l_extendedprice"))
            .filter(col("l_shipdate") == lit_date("1994-01-01"))
            .project(v=col("l_extendedprice"))
            .aggregate(aggs=[("s", AggFunc.SUM, col("v"))])
            .plan
        )
        broad = (
            scan("lineitem", ("l_shipdate", "l_extendedprice"))
            .filter(col("l_shipdate") >= lit_date("1900-01-01"))
            .project(v=col("l_extendedprice"))
            .aggregate(aggs=[("s", AggFunc.SUM, col("v"))])
            .plan
        )
        sim = AquomanSimulator(small_db, config)
        t_selective = sim.run(selective).trace.aquoman_flash_bytes
        t_broad = AquomanSimulator(small_db, config).run(
            broad
        ).trace.aquoman_flash_bytes
        assert t_selective < t_broad

    def test_join_index_shortcut_avoids_dram(self, small_db, config):
        # Q12's lineitem -> orders join rides the FK join index.
        result = AquomanSimulator(small_db, config).run(
            tpch.query(12), query="q12"
        )
        assert result.trace.aquoman_dram_peak_bytes == 0
        assert result.trace.offload_fraction_rows > 0.95

    def test_bare_scan_not_offloaded(self, small_db, config):
        plan = scan("lineitem", ("l_orderkey",)).plan
        result = AquomanSimulator(small_db, config).run(plan)
        assert result.trace.aquoman_flash_bytes == 0

    def test_trace_scale_factor_recorded(self, small_db, config):
        result = AquomanSimulator(small_db, config).run(tpch.query(6))
        assert result.trace.scale_factor == small_db.scale_factor

    def test_device_executor_refuses_left_outer(self, tiny_db, config):
        # The compiler never offloads one, but DeviceExecutor.run is
        # callable directly; INNER semantics would be silently wrong.
        plan = (
            scan("customer", ("c_custkey",))
            .join(
                scan("orders", ("o_orderkey", "o_custkey")),
                "c_custkey", "o_custkey", kind=JoinKind.LEFT_OUTER,
            )
            .plan
        )
        device = AquomanDevice(tiny_db, config)
        with pytest.raises(NotImplementedError, match="cannot execute"):
            DeviceExecutor(device, Engine(tiny_db).scalar).run(plan)


class TestTableTaskScheduling:
    """The simulator runs its subtrees as Table Tasks on the device."""

    @pytest.mark.parametrize("number", [1, 6, 3, 10])
    def test_fig17_queries_feed_the_unit_counters(
        self, small_db, config, number
    ):
        device = AquomanSimulator(small_db, config).run(
            tpch.query(number)
        ).device
        assert device.meters.tasks_run >= 1
        assert device.row_selector.rows_scanned > 0

    def test_task_census(self, small_db, config):
        """tasks_run counts exactly the tasks the scheduler emitted for
        subtrees it did not roll back."""
        sim = AquomanSimulator(small_db, config)
        for n in tpch.ALL_QUERIES:
            result = sim.run(tpch.query(n), query=f"q{n:02d}")
            tasks_run = result.device.meters.tasks_run
            assert tasks_run == len(result.tasks), n
            if result.trace.aquoman_flash_bytes > 0:
                assert tasks_run >= 1, n
            if n in (13, 22):  # nothing of these offloads at SF 1000
                assert tasks_run == 0, n

    def test_a_chain_folds_into_one_task_per_pipeline_pass(
        self, small_db, config
    ):
        plan = (
            scan("lineitem", ("l_quantity", "l_tax", "l_discount"))
            .filter(col("l_quantity") < lit(30))
            .filter(col("l_tax") < lit(0.05))
            .project(d=col("l_discount") * 2)
            .aggregate(aggs=[("s", AggFunc.SUM, col("d"))])
            .project(twice=col("s") * 2)
            .plan
        )
        result = AquomanSimulator(small_db, config).run(plan)
        assert Engine(small_db).execute(plan).equals(
            result.table.renamed("result")
        )
        # filter | filter, project, aggregate | project
        assert [
            sorted(task.nodes) for task in result.tasks
        ] == [
            ["filter", "scan"], ["aggregate", "filter", "project"],
            ["project"],
        ]
        assert [task.table for task in result.tasks] == [
            "lineitem", None, None,
        ]

    def test_rolled_back_subtree_leaves_no_device_activity(self, small_db):
        """Everything the timing models read goes back with the
        subtree: meters and the Row Selector's own counters."""
        cfg = DeviceConfig(dram_bytes=1 * MB, scale_ratio=SF1000_RATIO)
        result = AquomanSimulator(small_db, cfg).run(tpch.query(3))
        # The scan chains ran as tasks before the join overflowed DRAM.
        assert SuspendReason.DRAM_EXCEEDED in result.suspend_reasons
        device = result.device
        assert result.tasks == []
        assert device.meters.tasks_run == 0
        assert device.meters.flash_bytes == 0
        assert device.meters.rows_streamed == 0
        assert device.row_selector.rows_scanned == 0
        assert device.row_selector.masks_produced == 0
        assert result.trace.offload_fraction_rows == 0.0


class TestSuspensionRollback:
    def test_tiny_dram_suspends_but_stays_correct(self, small_db):
        cfg = DeviceConfig(dram_bytes=1 * MB, scale_ratio=SF1000_RATIO)
        for n in (3, 5, 10):
            baseline = Engine(small_db).execute(tpch.query(n))
            result = AquomanSimulator(small_db, cfg).run(
                tpch.query(n), query=f"q{n:02d}"
            )
            assert baseline.equals(result.table.renamed("result"))

    def test_rollback_restores_meters(self, small_db):
        cfg = DeviceConfig(dram_bytes=1 * MB, scale_ratio=SF1000_RATIO)
        result = AquomanSimulator(small_db, cfg).run(
            tpch.query(5), query="q05"
        )
        # The suspended join subtree re-ran on the host: its flash
        # traffic must appear in host reads, not double-billed.
        assert SuspendReason.DRAM_EXCEEDED in result.suspend_reasons
        assert result.trace.total_flash_bytes > 0


class TestMemoryRelease:
    @pytest.mark.parametrize("number", [1, 21])
    def test_columns_are_not_parked_in_reference_cycles(
        self, small_db, config, number
    ):
        """Intermediate columns must die by reference count.

        A cycle holding them survives until the cyclic collector next
        runs, so the peak footprint would swing with collector timing
        (q1 and q21 each used to park megabytes this way).
        """
        import gc

        import numpy as np

        simulator = AquomanSimulator(small_db, config)
        plan = tpch.query(number)
        simulator.run(plan)  # one-time caches first
        gc.collect()
        gc.disable()
        try:
            simulator.run(plan)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            parked = {
                id(ref): ref.nbytes
                for obj in gc.garbage
                for ref in gc.get_referents(obj)
                if isinstance(ref, np.ndarray)
            }
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert sum(parked.values()) == 0


class TestJoinIndexIdentity:
    """The join-index shortcut takes a referenced side whose row ids
    are its table's identity map.  A mask that keeps every row leaves
    that map as it is; one that drops a row does not."""

    ORDERS = ("o_orderkey", "o_totalprice")

    def _plan(self, orders):
        return (
            scan("lineitem", ("l_orderkey", "l_quantity"))
            .join(orders, "l_orderkey", "o_orderkey")
            .plan
        )

    def _run(self, db, config, orders, monkeypatch):
        """(shortcut taken per join, sorter bytes) of one plan."""
        taken = []
        real = DeviceExecutor._try_join_index

        def spy(self, *args):
            out = real(self, *args)
            taken.append(out is not None)
            return out

        monkeypatch.setattr(DeviceExecutor, "_try_join_index", spy)
        device = AquomanDevice(db, config)
        DeviceExecutor(device, Engine(db).scalar).run(self._plan(orders))
        return taken, device.meters.sorter_bytes

    def test_filter_keeping_every_row_takes_the_shortcut(
        self, tiny_db, config, monkeypatch
    ):
        orders = scan("orders", self.ORDERS).filter(
            col("o_orderkey") > lit(0)
        )
        assert self._run(tiny_db, config, orders, monkeypatch) == (
            [True], 0
        )

    def test_filter_dropping_one_row_sorts(
        self, tiny_db, config, monkeypatch
    ):
        first = int(tiny_db.table("orders").column("o_orderkey").values[0])
        orders = scan("orders", self.ORDERS).filter(
            col("o_orderkey") != lit(first)
        )
        taken, sorter_bytes = self._run(
            tiny_db, config, orders, monkeypatch
        )
        assert taken == [False] and sorter_bytes > 0

    @pytest.mark.parametrize("drop, taken", [(False, True), (True, False)])
    def test_mask_source(self, tiny_db, config, drop, taken):
        """A ``mask_src`` naming every row (in any order: the mask is a
        set) is the whole table; one row short, it is not."""
        device = AquomanDevice(tiny_db, config)
        rowids = np.arange(tiny_db.table("orders").nrows)[::-1]
        device.store_intermediate("keep", Relation({
            ROWID: TypedArray(rowids[int(drop):], Kind.INT, 0)
        }))
        left = device.run_table_task(
            TableTask(table="lineitem", columns=("l_orderkey", "l_quantity"))
        )
        right = device.run_table_task(
            TableTask(table="orders", columns=self.ORDERS, mask_src="keep")
        )
        executor = DeviceExecutor(device, Engine(tiny_db).scalar)
        plan = self._plan(scan("orders", self.ORDERS))
        out = executor._try_join_index(plan, left, right)
        assert (out is not None) is taken


class TestSelfJoinRowIds:
    """Both sides of a join may read one base table (Q07/Q08's two
    nations, Q21's lineitems).  Each side's columns stay under that
    side's own row ids through the pairing."""

    def test_probe_column_charged_after_the_join(self, tiny_db, config):
        device = AquomanDevice(tiny_db, config)
        n = tiny_db.table("orders").nrows
        probe = device.run_table_task(
            TableTask(table="orders", columns=("o_orderkey", "o_totalprice"))
        )
        build = device.run_table_task(
            TableTask(table="orders", columns=("o_custkey",))
        )
        # The probe side keeps a row on every page, the build side one
        # row on the last page; every probe row pairs with it.
        probe = probe.masked(np.arange(n) % 7 == 0)
        build = build.masked(np.arange(n) == n - 1)
        m = probe.relation.nrows
        out = probe.paired(
            build, np.arange(m), np.zeros(m, dtype=np.int64)
        )

        before = device.meters.flash_bytes
        device.charge(out, ["o_totalprice"])
        extent = device.layout.extent("orders", "o_totalprice")
        rows = np.flatnonzero(np.arange(n) % 7 == 0)
        assert extent.n_pages > 1
        assert device.meters.flash_bytes - before == PAGE_BYTES * int(
            extent.touched_pages(rows).sum()
        )
        assert device.meters.flash_bytes - before == (
            extent.n_pages * PAGE_BYTES
        )

    def test_build_column_charged_after_the_join(self, tiny_db, config):
        device = AquomanDevice(tiny_db, config)
        n = tiny_db.table("orders").nrows
        probe = device.run_table_task(
            TableTask(table="orders", columns=("o_orderkey",))
        ).masked(np.arange(n) == 0)
        build = device.run_table_task(
            TableTask(table="orders", columns=("o_custkey", "o_totalprice"))
        ).masked(np.arange(n) % 7 == 0)
        m = build.relation.nrows
        out = probe.paired(
            build, np.zeros(m, dtype=np.int64), np.arange(m)
        )

        before = device.meters.flash_bytes
        device.charge(out, ["o_totalprice", "o_orderkey"])
        extent = device.layout.extent("orders", "o_totalprice")
        rows = np.flatnonzero(np.arange(n) % 7 == 0)
        # Each side's column, each under its own rows: the build side's
        # spread over every page, the probe side's first row.
        assert device.meters.flash_bytes - before == PAGE_BYTES * (
            int(extent.touched_pages(rows).sum()) + 1
        )

    def test_join_index_gather_of_a_table_the_probe_reads(
        self, tiny_db, config
    ):
        """The join-index shortcut gathers the referenced table under a
        key of its own when the probe side reads that table already."""
        device = AquomanDevice(tiny_db, config)
        n_orders = tiny_db.table("orders").nrows
        lines = device.run_table_task(
            TableTask(table="lineitem", columns=("l_orderkey",))
        )
        first_order = device.run_table_task(
            TableTask(table="orders", columns=("o_totalprice",))
        ).masked(np.arange(n_orders) == 0)
        n_lines = lines.relation.nrows
        left = lines.paired(
            first_order, np.arange(n_lines),
            np.zeros(n_lines, dtype=np.int64),
        )
        right = device.run_table_task(
            TableTask(table="orders", columns=("o_orderkey", "o_custkey"))
        )
        plan = (
            scan("lineitem", ("l_orderkey",))
            .join(scan("orders", ("o_orderkey", "o_custkey")),
                  "l_orderkey", "o_orderkey")
            .plan
        )
        out = DeviceExecutor(device, Engine(tiny_db).scalar)._try_join_index(
            plan, left, right
        )
        assert out is not None

        before = device.meters.flash_bytes
        device.charge(out, ["o_totalprice"])
        extent = device.layout.extent("orders", "o_totalprice")
        assert extent.n_pages > 1
        # Still the probe side's one order, not the gathered ones.
        assert device.meters.flash_bytes - before == PAGE_BYTES


class TestWorkCensus:
    """What the simulator does per query, counted (not timed): the
    fixed cost of a run is paid once per unit, root, stage and column."""

    @pytest.fixture(params=[1, 8, 11, 21])
    def census(self, request, small_db, config, monkeypatch):
        calls = Counter()
        walked, lowered, residuals, charged, subtrees = [], [], [], [], []

        def spy(owner, name, record):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                record(*args)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        cls = compiler_module.QueryCompiler
        spy(cls, "compile", lambda *a: calls.update(["compile"]))
        spy(cls, "_compile", lambda *a: calls.update(["unit"]))
        spy(compiler_module, "subtree_reduces", walked.append)
        spy(device_module, "lower_stage", lambda *a: lowered.append(0))
        spy(dataflow_module, "map_to_pes",
            lambda *a: lowered.__setitem__(-1, lowered[-1] + 1))
        spy(DeviceExecutor, "_residual_mask",
            lambda *a: residuals.append(None))
        spy(DeviceExecutor, "run", lambda executor, plan: subtrees.append(
            plan))
        spy(AquomanDevice, "charge_pages",
            lambda device, extent, *a: charged.append(
                (extent.table, extent.column)))

        result = AquomanSimulator(small_db, config).run(
            tpch.query(request.param), query=f"q{request.param:02d}"
        )
        return result, calls, walked, lowered, residuals, charged, subtrees

    def test_one_compile_per_unit(self, census):
        result, calls = census[:2]
        assert calls["compile"] == 1
        assert calls["unit"] == len(result.compiled.flatten())

    def test_subtrees_walked_at_offload_roots_only(self, census):
        result, walked = census[0], census[2]
        roots = {
            root for unit in result.compiled.flatten()
            for root in unit.offload_roots()
        }
        # Once per root at most: a root streaming for an assisted
        # aggregate runs on the device without the walk.
        assert walked and set(walked) <= roots
        assert len(set(walked)) == len(walked)

    def test_one_pe_graph_per_stage_and_residual(self, census):
        result, lowered, residuals = census[0], census[3], census[4]
        stages = sum(
            (task.row_filter is not None) + (task.row_transf is not None)
            for task in result.tasks
        )
        assert len(lowered) == stages + len(residuals)
        assert all(graphs <= 1 for graphs in lowered)
        assert sum(lowered) > 0

    def test_base_columns_charged_once_per_lineage(self, census):
        """A lineage starts at a scan: no column is read more often
        than its table is scanned on the device."""
        charged, subtrees = census[5], census[6]
        scans = Counter(
            node.table for root in subtrees for node in root.walk()
            if isinstance(node, Scan)
        )
        assert charged
        for (table, column), n in Counter(charged).items():
            assert n <= scans[table], (table, column, n)
