"""Table-Reader page accounting: the page-touch primitive and its golden.

Two halves.  The property half checks ``ColumnExtent.touched_pages``
against the route it replaced (sort + de-duplicate the row ids, build an
``nrows``-long bit vector, OR it per page), ``selection_pages`` (the
answer for row ids that never decrease) against ``touched_pages``, and
the device stream's row-id shapes against explicit row-id arrays.  The
golden half pins what the accounting *charges* — flash bytes, page
counters, the morsel trace's per-column page dicts and the fault
injector's event log — to numbers recorded at the commit before the
primitive existed, so a faster accounting that charges different pages
cannot pass.

``python tests/test_page_accounting.py`` rewrites the golden file from
whatever ``repro`` is on ``PYTHONPATH``; only run it against a commit
whose accounting is trusted.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tpch
from repro.core import AquomanDevice, AquomanSimulator, DeviceConfig
from repro.core import device as device_module
from repro.core.device import DeviceStream, RowIds
from repro.engine import Engine, MorselConfig
from repro.engine.relation import Relation
from repro.engine.morsel import TUNED_MORSEL_ROWS
from repro.faults.injector import FaultInjector, set_fault_injector
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs import METRICS
from repro.perf.trace import QueryTrace
from repro.sqlir import AggFunc, col, lit, scan
from repro.sqlir.expr import Kind, TypedArray
from repro.storage.layout import (
    PAGE_BYTES,
    ColumnExtent,
    FlashLayout,
    selection_pages,
)
from repro.util.bitvector import BitVector
from test_engine_operators import _examples

GOLDEN = Path(__file__).parent / "fixtures" / "page_accounting_golden.json"
SF, SEED = 0.01, 1
MORSEL_ROWS = (TUNED_MORSEL_ROWS, 4096)


def _clustered_plan():
    """Survivors sit at the head of lineitem (order keys ascend), so
    whole pages have none: TPC-H's own predicates skip no page on the
    morsel path, this one does."""
    return (
        scan("lineitem")
        .filter(col("l_orderkey") < lit(3000))
        .aggregate(
            aggs=[
                ("qty", AggFunc.SUM, col("l_quantity")),
                ("price", AggFunc.SUM, col("l_extendedprice")),
            ]
        )
        .plan
    )


PLANS = {f"q{n:02d}": tpch.query(n) for n in sorted(tpch.ALL_QUERIES)}
PLANS["clustered"] = _clustered_plan()

# Page faults only: a device fault or worker crash would take the run
# off the accounting under test.
CHAOS_SEED = 11
CHAOS = FaultConfig(page_error_rate=0.02, latency_spike_rate=0.05)
CHAOS_QUERIES = ("q01", "q03", "q06", "q10", "q14", "q19", "clustered")


# -- what the golden file records --------------------------------------------


def _device_config() -> DeviceConfig:
    return DeviceConfig(scale_ratio=1000.0 / SF)


def _morsels(morsel_rows: int) -> MorselConfig:
    return MorselConfig(
        parallel=True, morsel_rows=morsel_rows, n_workers=1,
        worker_backend="serial",
    )


def _page_counters() -> tuple[int, int]:
    return (
        METRICS.counter("device.flash_pages_read").value,
        METRICS.counter("device.flash_pages_skipped").value,
    )


def device_record(db, name: str) -> dict:
    read0, skipped0 = _page_counters()
    result = AquomanSimulator(db, _device_config()).run(PLANS[name])
    read1, skipped1 = _page_counters()
    return {
        "flash_bytes": result.device.meters.flash_bytes,
        "pages_read": read1 - read0,
        "pages_skipped": skipped1 - skipped0,
    }


def _by_column(pages: dict) -> dict:
    return {f"{t}.{c}": n for (t, c), n in sorted(pages.items())}


def morsel_record(db, name: str, morsel_rows: int) -> dict:
    trace = QueryTrace(query=name, scale_factor=SF)
    Engine(db, trace, morsels=_morsels(morsel_rows)).execute_relation(
        PLANS[name]
    )
    return {
        "pages_read": _by_column(trace.flash_pages_read),
        "pages_skipped": _by_column(trace.flash_pages_skipped),
    }


def chaos_record(db, name: str) -> dict:
    """Event log (site, page id) of one query on both paths.

    Sorted, and the stall rounded, because the golden file was recorded
    that way; the device charges a node's columns in sorted order, and
    ``test_determinism.py`` holds the raw log and stall equal across
    hash seeds.
    """
    injector = FaultInjector(FaultPlan(CHAOS_SEED, CHAOS))
    set_fault_injector(injector)
    try:
        Engine(
            db, QueryTrace(), morsels=_morsels(TUNED_MORSEL_ROWS)
        ).execute_relation(PLANS[name])
        result = AquomanSimulator(db, _device_config()).run(PLANS[name])
    finally:
        set_fault_injector(None)
    return {
        "events": [list(e) for e in injector.sorted_events()],
        "summary": injector.summary(),
        "device_fault_stall_s": round(
            result.device.meters.fault_stall_s, 9
        ),
    }


def collect(db) -> dict:
    return {
        "device": {name: device_record(db, name) for name in PLANS},
        "morsel": {
            str(rows): {
                name: morsel_record(db, name, rows) for name in PLANS
            }
            for rows in MORSEL_ROWS
        },
        "chaos": {name: chaos_record(db, name) for name in CHAOS_QUERIES},
    }


# -- golden differential -------------------------------------------------------


@pytest.fixture(scope="module")
def db():
    return tpch.generate(SF, SEED)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenAccounting:
    @pytest.mark.parametrize("name", PLANS)
    def test_device_charges(self, db, golden, name):
        assert device_record(db, name) == golden["device"][name]

    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    @pytest.mark.parametrize("name", PLANS)
    def test_morsel_trace_pages(self, db, golden, name, morsel_rows):
        want = golden["morsel"][str(morsel_rows)][name]
        assert morsel_record(db, name, morsel_rows) == want

    @pytest.mark.parametrize("name", CHAOS_QUERIES)
    def test_chaos_event_log(self, db, golden, name):
        want = golden["chaos"][name]
        assert want["events"], "campaign must actually inject faults"
        assert chaos_record(db, name) == want


# -- the primitive against the route it replaced -------------------------------


def _extent(nrows: int, width: int, first_page: int = 7) -> ColumnExtent:
    return ColumnExtent(
        table="t", column="c", first_page=first_page,
        n_pages=max(1, -(-nrows * width // PAGE_BYTES)),
        value_width=width, nrows=nrows,
    )


def _legacy(extent: ColumnExtent, rowids: np.ndarray) -> np.ndarray:
    mask = BitVector.from_indices(
        np.unique(rowids.astype(np.int64)), extent.nrows
    )
    return mask.group_any(extent.rows_per_page())


@st.composite
def _selections(draw):
    width = draw(st.sampled_from([1, 4, 8]))
    per_page = PAGE_BYTES // width
    # Up to ~3 pages, biased so the last page is usually partial.
    nrows = draw(st.integers(1, 3 * per_page + 5))
    rowids = draw(
        st.lists(st.integers(0, nrows - 1), max_size=60)
    )
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    return _extent(nrows, width), np.array(rowids, dtype=dtype)


class TestTouchedPages:
    @given(_selections())
    @settings(max_examples=200, deadline=None)
    def test_equals_legacy_route(self, case):
        extent, rowids = case
        flags = extent.touched_pages(rowids)
        assert flags.dtype == np.bool_
        assert np.array_equal(flags, _legacy(extent, rowids))

    @pytest.mark.parametrize("width", [1, 4, 8])
    def test_partial_last_page(self, width):
        per_page = PAGE_BYTES // width
        extent = _extent(2 * per_page + 1, width)
        assert extent.n_pages == 3
        flags = extent.touched_pages(np.array([2 * per_page, 0, 0]))
        assert flags.tolist() == [True, False, True]

    def test_empty_selection_touches_nothing(self):
        extent = _extent(5000, 8)
        flags = extent.touched_pages(np.empty(0, dtype=np.int64))
        assert flags.tolist() == [False] * extent.n_pages

    @pytest.mark.parametrize("bad", [[-1], [3, 5000], [0, -7, 2]])
    def test_out_of_range_raises(self, bad):
        extent = _extent(5000, 8)
        with pytest.raises(IndexError):
            extent.touched_pages(np.array(bad, dtype=np.int64))

    def test_row_window(self):
        # Rows [1024, 3072) of an 8-byte column: pages 1 and 2.
        extent = _extent(5000, 8)
        flags = extent.touched_pages(
            np.array([2047, 1024]), first_row=1024, n_rows=2048
        )
        assert flags.tolist() == [True, False]
        with pytest.raises(IndexError):
            extent.touched_pages(
                np.array([1023]), first_row=1024, n_rows=2048
            )


# -- the answer for row ids that never decrease ------------------------------


@st.composite
def _ordered_selections(draw):
    """A page-aligned window that ends anywhere (a table's last span is
    no multiple of the page) and non-decreasing row ids inside it:
    unique, as a span's selection, or repeated, as the probe side of a
    device join."""
    width = draw(st.sampled_from([1, 4, 8]))
    per_page = PAGE_BYTES // width
    lo = draw(st.integers(0, 3)) * per_page
    hi = lo + draw(st.integers(1, 3 * per_page + 5))
    rowids = draw(st.lists(st.integers(lo, hi - 1), max_size=60))
    # The first and the last row of the window, more often than chance.
    rowids += draw(st.lists(st.sampled_from([lo, hi - 1]), max_size=2))
    if draw(st.booleans()):
        rowids = list(set(rowids))
    elif rowids:  # some ids again, each one or more times
        rowids += draw(st.lists(st.sampled_from(rowids), max_size=20))
    return (
        _extent(hi + draw(st.integers(0, 5)), width), lo, hi,
        np.array(sorted(rowids), dtype=np.int64),
    )


class TestSelectionPages:
    """``selection_pages`` ≡ ``ColumnExtent.touched_pages`` wherever the
    row ids never decrease — a span's selection, a device mask, the
    probe side of a device join."""

    @given(_ordered_selections())
    @settings(max_examples=_examples(300), deadline=None)
    def test_equals_the_general_answer(self, case):
        extent, lo, hi, rowids = case
        flags = selection_pages(rowids, lo, hi, extent.rows_per_page())
        assert flags.dtype == np.bool_
        assert np.array_equal(
            flags, extent.touched_pages(rowids, lo, hi - lo)
        )

    @pytest.mark.parametrize("width", [1, 4, 8])
    def test_empty_first_and_last_page(self, width):
        per_page = PAGE_BYTES // width
        lo, hi = 2 * per_page, 4 * per_page + 1  # two pages and a row
        none = np.empty(0, dtype=np.int64)
        assert selection_pages(none, lo, hi, per_page).tolist() == [
            False, False, False
        ]
        ends = np.array([lo, hi - 1])
        assert selection_pages(ends, lo, hi, per_page).tolist() == [
            True, False, True
        ]

    @pytest.mark.parametrize("bad", [[1023], [1024, 3072], [0, 2000]])
    def test_row_outside_the_window_raises_from_both(self, bad):
        extent = _extent(5000, 8)
        rowids = np.array(bad, dtype=np.int64)
        with pytest.raises(IndexError):
            selection_pages(rowids, 1024, 3072, extent.rows_per_page())
        with pytest.raises(IndexError):
            extent.touched_pages(rowids, first_row=1024, n_rows=2048)


# -- the per-selection memo and the shared layout -------------------------------


class TestSelectionMemo:
    def _rel(self, rowids):
        return DeviceStream(
            relation=Relation(
                {"x": TypedArray(np.asarray(rowids), Kind.INT, 0)}
            ),
            rowid_map={"lineitem": RowIds(
                len(rowids), np.asarray(rowids, dtype=np.int64),
                ordered=False,
            )},
            origin={},
            charged=set(),
        )

    def test_columns_of_one_width_share_one_pass(self, db):
        layout = FlashLayout(db)
        rel = self._rel([5, 9000, 5])
        first = rel.touched_pages(layout.extent("lineitem", "l_quantity"))
        again = rel.touched_pages(layout.extent("lineitem", "l_tax"))
        assert first is again
        assert first.sum() == 2  # rows 5 and 9000 of an 8-byte column
        narrow = rel.touched_pages(layout.extent("lineitem", "l_partkey"))
        assert narrow is not first
        assert set(rel.pages) == {("lineitem", 1024), ("lineitem", 2048)}

    def test_reselecting_rows_starts_empty(self, db):
        rel = self._rel([5, 9000, 5])
        rel.touched_pages(FlashLayout(db).extent("lineitem", "l_tax"))
        assert rel.gathered(np.array([0])).pages == {}
        assert rel.masked(np.array([True, False, True])).pages == {}

    def test_query_scans_row_ids_once_per_width(self, db, monkeypatch):
        """Q1 reads six columns of two widths under one selection: one
        page-skip answer per value width, counted on both routes (the
        per-row scatter and the per-page search).  Its mask leaves the
        row ids in order, so both answers are searched."""
        calls = []
        scatter = ColumnExtent.touched_pages
        search = device_module.selection_pages

        def counting_scatter(self, rowids, *args):
            calls.append(("scatter", self.rows_per_page()))
            return scatter(self, rowids, *args)

        def counting_search(rowids, lo, hi, per_page):
            calls.append(("search", per_page))
            return search(rowids, lo, hi, per_page)

        monkeypatch.setattr(ColumnExtent, "touched_pages", counting_scatter)
        monkeypatch.setattr(
            device_module, "selection_pages", counting_search
        )
        AquomanSimulator(db, _device_config()).run(PLANS["q01"])
        assert len(calls) == len({per_page for _, per_page in calls}) == 2
        assert {route for route, _ in calls} == {"search"}


class TestRowIdShapes:
    """A stream's row-id shapes (identity, ordered, gathered) answer
    the page-skip question as explicit row-id arrays do under the
    per-row scatter, over chains of masks, join pairs and join-index
    gathers."""

    TABLES = ("lineitem", "orders", "customer", "part", "supplier")

    @staticmethod
    def _opened(db, table):
        n = db.table(table).nrows
        stream = DeviceStream(
            relation=Relation(
                {table: TypedArray(np.arange(n), Kind.INT, 0)}
            ),
            rowid_map={table: RowIds(n)},
            origin={},
            charged=set(),
        )
        return stream, {table: np.arange(n, dtype=np.int64)}

    @staticmethod
    def _keep(data, rng, n):
        """A mask: every row, none, a clustered run or a scatter."""
        kind = data.draw(st.sampled_from(["all", "none", "run", "sparse"]))
        if kind in ("all", "none"):
            return np.full(n, kind == "all")
        if kind == "run":
            lo = int(rng.integers(0, n + 1))
            keep = np.zeros(n, dtype=np.bool_)
            keep[lo:lo + int(rng.integers(0, n // 4 + 2))] = True
            return keep
        return rng.random(n) < data.draw(st.sampled_from([0.001, 0.3]))

    def _step(self, db, data, rng, stream, ref):
        op = data.draw(st.sampled_from(["mask", "pair", "index"]))
        n = stream.relation.nrows
        free = [t for t in self.TABLES if t not in ref]
        if op == "mask":
            keep = self._keep(data, rng, n)
            rows = np.flatnonzero(keep)
            return stream.masked(keep), {
                t: ids[rows] for t, ids in ref.items()
            }
        if not free:
            return stream, ref
        other = data.draw(st.sampled_from(free))
        if op == "pair":
            right, right_ref = self._opened(db, other)
            right_keep = self._keep(data, rng, right.relation.nrows)
            right = right.masked(right_keep)
            right_ref = {other: right_ref[other][right_keep]}
            n_right = right.relation.nrows
            m = int(rng.integers(0, 3 * n + 1)) if n and n_right else 0
            # Left-row-major pairs: the probe side's rows never
            # decrease and repeat; the build side's are anywhere.
            li = np.sort(rng.integers(0, max(n, 1), m))
            ri = rng.integers(0, max(n_right, 1), m)
            out = stream.paired(right, li, ri)
            return out, {
                **{t: ids[li] for t, ids in ref.items()},
                other: right_ref[other][ri],
            }
        # A join-index gather: a foreign-key row-id column of one of
        # the stream's tables, read at that table's row ids.
        table = data.draw(st.sampled_from(sorted(ref)))
        index = rng.integers(
            0, db.table(other).nrows, db.table(table).nrows
        )
        gathered = stream.rowid_map[table].at(index)
        out = DeviceStream(
            relation=stream.relation,
            rowid_map={
                **stream.rowid_map,
                other: RowIds(len(gathered), gathered, ordered=False),
            },
            origin={},
            charged=set(),
        )
        return out, {**ref, other: index[ref[table]]}

    @staticmethod
    def _check(db, layout, stream, ref):
        explicit = DeviceStream(
            relation=stream.relation,
            rowid_map={
                t: RowIds(len(ids), ids, ordered=False)
                for t, ids in ref.items()
            },
            origin={},
            charged=set(),
        )
        shaped_device = AquomanDevice(db, layout=layout)
        explicit_device = AquomanDevice(db, layout=layout)
        for table, ids in ref.items():
            shape = stream.rowid_map[table]
            assert shape.nrows == len(ids)
            if shape.is_identity:
                assert np.array_equal(ids, np.arange(db.table(table).nrows))
            elif shape.ordered:
                assert np.all(np.diff(ids) >= 0)
            assert np.array_equal(shape.array(), ids)
            for column in db.table(table).column_names[:3]:
                extent = layout.extent(table, column)
                assert np.array_equal(
                    stream.touched_pages(extent),
                    extent.touched_pages(ids),
                )
                for whole in (True, False):
                    shaped_device.charge_base(stream, table, column, whole)
                    explicit_device.charge_base(
                        explicit, table, column, whole
                    )
                    assert (shaped_device.meters.flash_bytes
                            == explicit_device.meters.flash_bytes)

    @given(st.data())
    @settings(max_examples=_examples(60), deadline=None)
    def test_shapes_charge_what_explicit_row_ids_charge(self, db, data):
        layout = FlashLayout(db)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        stream, ref = self._opened(
            db, data.draw(st.sampled_from(["lineitem", "orders"]))
        )
        self._check(db, layout, stream, ref)
        for _ in range(data.draw(st.integers(1, 5))):
            stream, ref = self._step(db, data, rng, stream, ref)
            self._check(db, layout, stream, ref)

    def test_a_mask_keeping_every_row_keeps_identity(self, db):
        stream, _ = self._opened(db, "orders")
        n = stream.relation.nrows
        assert stream.masked(np.ones(n, bool)).rowid_map[
            "orders"
        ].is_identity
        keep = np.ones(n, bool)
        keep[n // 2] = False
        dropped = stream.masked(keep).rowid_map["orders"]
        assert not dropped.is_identity and dropped.ordered


class TestSharedLayout:
    def test_simulator_hands_one_layout_to_every_device(self, db):
        sim = AquomanSimulator(db, _device_config())
        first = sim.run(PLANS["q06"]).device
        second = sim.run(PLANS["q14"]).device
        assert first is not second
        assert first.layout is sim.layout is second.layout

    def test_device_builds_its_own_without_one(self, db):
        device = AquomanDevice(db)
        assert device.layout is not AquomanDevice(db).layout
        extent = device.layout.extent("lineitem", "l_tax")
        assert device.charge_pages(extent) == extent.n_pages * PAGE_BYTES


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(collect(tpch.generate(SF, SEED)), indent=1,
                   sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
