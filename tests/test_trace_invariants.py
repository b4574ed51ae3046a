"""Cross-executor trace invariants.

Both executors model the same physical story — column pages leaving
flash — so their traces must agree wherever the execution strategy
doesn't differ: a hybrid engine that offloads nothing charges exactly
the baseline's flash bytes, and page-skip accounting always partitions
a column's page span into read + skipped.

The query record exists once: an operator's span carries the volumes of
the ``OpTrace`` recorded inside it, and what the 22 TPC-H plans record
on each path is pinned to ``fixtures/query_record_golden.json``, written
at the commit before host operators accounted in one place.
``python tests/test_trace_invariants.py`` rewrites that file from
whatever ``repro`` is on ``PYTHONPATH``; only run it against a commit
whose traces are trusted.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.core.device import AquomanDevice
from repro.core.simulator import HybridEngine
from repro.engine import Engine
from repro.engine.morsel import MorselConfig
from repro.obs import Tracer
from repro.perf.trace import QueryTrace
from repro.sqlir.plan import assign_node_ids
from repro.storage.layout import FlashLayout

GOLDEN = Path(__file__).parent / "fixtures" / "query_record_golden.json"
SF = 0.01
QUERIES = {f"q{n:02d}": n for n in sorted(tpch.ALL_QUERIES)}
PATHS = ("host", "stream", "device")


def run_path(db, name: str, path: str, tracer=None) -> QueryTrace:
    """One TPC-H plan on one execution path; the trace it recorded."""
    plan = tpch.query(QUERIES[name])
    assign_node_ids(plan)  # operator spans carry their node id
    if path == "device":
        config = DeviceConfig(scale_ratio=1000.0 / SF)
        return AquomanSimulator(db, config, tracer=tracer).run(
            plan, query=name
        ).trace
    trace = QueryTrace(query=name, scale_factor=SF)
    morsels = None if path == "host" else MorselConfig(
        parallel=True, n_workers=1, worker_backend="serial"
    )
    Engine(
        db, trace, morsels=morsels, tracer=tracer
    ).execute_relation(plan)
    return trace


def query_record(trace: QueryTrace) -> dict:
    ops = [
        [op.op, op.rows_in, op.rows_out, op.bytes_in, op.bytes_out,
         op.detail, op.groups, op.assisted]
        for op in trace.ops
    ]
    return {
        "n_ops": len(trace.ops),
        "rows_processed": trace.rows_processed(),
        "peak_host_bytes": trace.peak_host_bytes,
        "total_intermediate_bytes": trace.total_intermediate_bytes,
        "ops_sha1": hashlib.sha1(json.dumps(ops).encode()).hexdigest(),
    }


def collect(db) -> dict:
    return {
        path: {
            name: query_record(run_path(db, name, path))
            for name in QUERIES
        }
        for path in PATHS
    }


class TestQueryRecord:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("name", QUERIES)
    def test_ops_match_the_golden(self, small_db, golden, name, path):
        record = query_record(run_path(small_db, name, path))
        assert record == golden[path][name]

    @pytest.mark.parametrize("path", ("host", "stream"))
    @pytest.mark.parametrize("name", QUERIES)
    def test_spans_carry_the_recorded_volumes(self, small_db, name, path):
        """An operator span adds time and lane to its ``OpTrace``, not
        a second measurement of the volumes."""
        tracer = Tracer()
        trace = run_path(small_db, name, path, tracer)
        assert tracer.n_dropped == 0
        spans = [
            args for _, (span, *_, args) in tracer.records()
            if span == "morsel.fragment"
            or (span.startswith("engine.") and args.get("node") is not None)
        ]
        # Spans close, and operators record, in the same post-order.
        assert [(s["rows_out"], s["bytes_out"]) for s in spans] == [
            (op.rows_out, op.bytes_out) for op in trace.ops
        ]


class TestHostPathFlashAgreement:
    """A hybrid engine that offloads nothing == the baseline engine."""

    @pytest.mark.parametrize("qnum", [1, 3, 6])
    def test_flash_bytes_agree_per_column(self, tiny_db, qnum):
        plan = tpch.query(qnum)
        baseline = Engine(tiny_db)
        baseline.execute_relation(plan)

        device = AquomanDevice(tiny_db, DeviceConfig())
        trace = QueryTrace()
        # Empty decisions/offload_roots force every node down the
        # host path; only the trace bookkeeping differs from Engine.
        hybrid = HybridEngine(tiny_db, device, {}, set(), trace)
        hybrid.execute_relation(tpch.query(qnum))

        assert trace.flash_read_bytes == baseline.trace.flash_read_bytes
        assert device.meters.flash_bytes == 0  # nothing ran on-device

    def test_simulator_result_matches_baseline_table(self, tiny_db):
        plan = tpch.query(6)
        expected = Engine(tiny_db).execute(plan)
        result = AquomanSimulator(tiny_db, DeviceConfig()).run(
            tpch.query(6), query="q06"
        )
        assert expected.equals(result.table.renamed("result"))


class TestPageSpanInvariant:
    """pages_read + pages_skipped must cover the column's page span."""

    @pytest.mark.parametrize("qnum", [1, 6])
    def test_morsel_accounting_partitions_span(self, small_db, qnum):
        engine = Engine(
            small_db,
            morsels=MorselConfig(parallel=True, morsel_rows=8192),
        )
        engine.execute_relation(tpch.query(qnum))
        trace = engine.trace
        assert trace.flash_pages_read, "morsel path did not run"

        layout = FlashLayout(small_db)
        for (table, column), n_read in trace.flash_pages_read.items():
            n_skipped = trace.flash_pages_skipped[(table, column)]
            extent = layout.extent(table, column)
            assert n_read + n_skipped == extent.n_pages, (
                f"{table}.{column}: {n_read} read + {n_skipped} skipped "
                f"!= {extent.n_pages} pages in extent"
            )


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(collect(tpch.generate(SF)), indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
