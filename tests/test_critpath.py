"""Critical-path reconstruction and its invariants.

The fixed-fixture tests pin the structural contract the doctor relies
on: the path tiles the root window exactly, attribution fractions sum
to one, and the analysis is a pure function of the record set.  The
live test re-checks the same invariants on a real morsel-parallel run.
"""

import pytest

from repro import tpch
from repro.engine import Engine
from repro.engine.morsel import MorselConfig
from repro.engine.procpool import process_backend_available
from repro.obs import Tracer
from repro.obs.critpath import (
    BUCKETS,
    analyze_records,
    build_forest,
    classify_bucket,
    critical_path,
)

# A hand-built trace: completion-ordered (thread, record) pairs, record
# = (name, lane, t0_ns, dur_ns, depth, self_ns, args).  The main thread
# runs scan -> io -> fragment under one root; a worker thread's span
# nests (by time containment) inside the fragment.
FIXED_RECORDS = [
    ("MainThread", ("engine.scan", None, 100, 300, 1, 300, None)),
    ("MainThread", ("io.read_pages", None, 420, 80, 1, 80, None)),
    ("MainThread", ("morsel.fragment", None, 500, 480, 1, 480, None)),
    ("MainThread", ("doctor.query", None, 0, 1000, 0, 120, None)),
    ("proc-worker-0",
     ("morsel.span", None, 520, 400, 0, 400, None)),
]


@pytest.fixture()
def fixed():
    return analyze_records(list(FIXED_RECORDS),
                           root_name="doctor.query")


class TestForest:
    def test_worker_root_attaches_to_fragment(self):
        roots, n_instants = build_forest(list(FIXED_RECORDS))
        assert n_instants == 0
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "doctor.query"
        fragment = next(
            n for n in root.walk() if n.name == "morsel.fragment"
        )
        assert [c.name for c in fragment.children] == ["morsel.span"]

    def test_instants_are_counted_not_treed(self):
        records = list(FIXED_RECORDS) + [
            ("MainThread", ("mark", None, 50, -1, 1, 0, None)),
        ]
        roots, n_instants = build_forest(records)
        assert n_instants == 1
        assert all(
            n.name != "mark" for r in roots for n in r.walk()
        )


class TestInvariants:
    def test_path_tiles_the_root_window(self, fixed):
        assert fixed.path_ns == fixed.wall_ns == 1000
        # Segments are disjoint and ordered.
        segs = fixed.segments
        assert all(
            a.t1 <= b.t0 for a, b in zip(segs, segs[1:])
        )

    def test_path_bounds_lane_busy(self, fixed):
        assert fixed.lane_busy_ns["MainThread"] == 980
        assert fixed.lane_busy_ns["proc-worker-0"] == 400
        assert max(fixed.lane_busy_ns.values()) <= fixed.path_ns

    def test_attribution_sums_to_one(self, fixed):
        assert sum(fixed.attribution.values()) == pytest.approx(1.0)
        assert fixed.attribution["flash_io"] == pytest.approx(0.08)
        assert set(fixed.attribution) <= set(BUCKETS)

    def test_deterministic_on_fixed_records(self, fixed):
        again = analyze_records(list(FIXED_RECORDS),
                                root_name="doctor.query")
        assert again.format(top=10) == fixed.format(top=10)
        assert again.attribution == fixed.attribution
        assert [
            (s.node.name, s.t0, s.t1) for s in again.segments
        ] == [(s.node.name, s.t0, s.t1) for s in fixed.segments]

    def test_format_mentions_every_section(self, fixed):
        text = fixed.format()
        assert "critical path:" in text
        assert "lane utilization:" in text
        assert "bottleneck attribution" in text


class TestCriticalPathWalk:
    def test_gap_after_child_is_parent_self_time(self):
        roots, _ = build_forest(list(FIXED_RECORDS))
        segments = critical_path(roots[0])
        by_name = {}
        for seg in segments:
            by_name.setdefault(seg.node.name, 0)
            by_name[seg.node.name] += seg.dur_ns
        # Root owns its leading self-time [0,100) plus the two gaps
        # (400,420] and (980,1000].
        assert by_name["doctor.query"] == 140
        assert by_name["morsel.span"] == 400
        assert by_name["io.read_pages"] == 80


class TestClassify:
    @pytest.mark.parametrize(
        "name,lane,bucket",
        [
            ("engine.filter", "MainThread", "host"),
            ("io.read_pages", "MainThread", "flash_io"),
            ("flash.fetch", "MainThread", "flash_io"),
            ("device.scan", "device", "device"),
            ("device.filter", "device.row_selector", "row_selector"),
            ("device.project", "device.transformer", "transformer"),
            ("device.sort", "device.swissknife", "swissknife"),
        ],
    )
    def test_buckets(self, name, lane, bucket):
        assert classify_bucket(name, lane) == bucket


class TestLiveRun:
    def test_invariants_hold_on_a_real_trace(self, small_db):
        # morsel_rows aligns up to 8192, so the ~60k-row catalog is the
        # smallest that actually fans out to pool workers.
        tracer = Tracer()
        engine = Engine(
            small_db,
            tracer=tracer,
            morsels=MorselConfig(
                parallel=True, morsel_rows=8192, n_workers=4
            ),
        )
        with tracer.span("root.query"):
            engine.execute_relation(tpch.query(6))
        analysis = analyze_records(
            tracer.records(), root_name="root.query"
        )
        assert analysis.root.name == "root.query"
        assert analysis.path_ns == analysis.wall_ns
        assert sum(analysis.attribution.values()) == pytest.approx(1.0)
        assert max(analysis.lane_busy_ns.values()) <= analysis.path_ns
        if not process_backend_available():
            pytest.skip("no fork start method: spans ran inline")
        assert any(
            lane.startswith("proc-worker")
            for lane in analysis.lane_busy_ns
        )

    def test_no_spans_raises(self):
        with pytest.raises(ValueError, match="no spans"):
            analyze_records([])
