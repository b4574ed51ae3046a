"""Every paper-facing model number, pinned: the model golden.

The paper's Fig. 16–17 come from a trace-based simulator, and so do
ours, so at a fixed data SF, seed and target SF each figure and table
cell is a pure function of the code.  The golden file pins them all:
Fig. 16(a)/(b)/(c), the headline claims, Fig. 17, Sec. VIII-D, Table V,
Tables III/IV, the Sec. VI-E suspension classes and the morsel Q6-class
flash bytes.  Floats match to 1e-9 relative, everything else exactly;
a failure lists every cell that moved.  The blocks between
``<!-- model_golden:<section> -->`` markers in EXPERIMENTS.md must be
what the golden renders.

``python tests/test_model_golden.py`` rewrites the golden file from
whatever ``repro`` is on ``PYTHONPATH`` and re-renders those blocks;
only run it against a commit whose model numbers are trusted.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro import tpch
from repro.core.compiler import SuspendReason
from repro.core.resources import component_inventory, sorter_inventory
from repro.core.swissknife.sorter import SorterThroughputModel
from repro.engine import Engine, MorselConfig
from repro.perf import model
from repro.perf.model import AQUOMAN_40GB, HOST_L, SystemModel
from repro.perf.scaling import scale_trace
from repro.perf.tpch_eval import collect_traces
from repro.perf.validation import validate_device_timing
from repro.sqlir import AggFunc, col, lit, lit_date, scan
from repro.tpch.schema import table_cardinality
from repro.util.units import GB

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "model_golden.json"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
SF, TARGET_SF = 0.01, 1000.0
REL_TOL = 1e-9

FIG17_QUERIES = ("q01", "q06", "q03", "q10")


def q6_class_plan():
    """The Q6-class scan of ``benchmarks/test_morsel_scaling.py``."""
    return scan("lineitem").filter(
        (col("l_shipdate") >= lit_date("1994-01-01"))
        & (col("l_shipdate") < lit_date("1995-01-01"))
        & (col("l_quantity") < lit(24))
    ).aggregate(aggs=[
        ("n", AggFunc.COUNT, None), ("qty", AggFunc.SUM, col("l_quantity")),
    ]).plan


def model_cells(db, evaluation) -> dict:
    """Every pinned cell, computed the way its benchmark computes it."""
    report = evaluation.report(TARGET_SF)
    queries, systems = report.queries, report.systems
    cells: dict = {
        f"fig16a.{q}.{s}_s": report.timing(q, s).runtime_s
        for q in queries for s in systems
    }
    cells.update(
        {f"fig16a.total.{s}_s": report.total_runtime(s) for s in systems}
    )
    for q in queries:
        for s, what in (("L", "host_peak"), ("L", "host_avg"),
                        ("L-AQUOMAN", "host_peak"),
                        ("L-AQUOMAN", "host_avg"),
                        ("L-AQUOMAN", "device_peak")):
            cells[f"fig16b.{q}.{s}.{what}_bytes"] = getattr(
                report.timing(q, s), f"{what}_bytes"
            )
    for q in queries:
        cells[f"fig16c.{q}.device_fraction"] = report.device_fraction(q)
        cells[f"fig16c.{q}.cpu_saving"] = report.cpu_saving(q)
    cells["headline.mean_cpu_saving"] = report.mean_cpu_saving()
    cells["headline.mean_dram_saving"] = report.mean_dram_saving()
    cells["headline.S-AQUOMAN16_over_L"] = (
        report.total_runtime("S-AQUOMAN16") / report.total_runtime("L")
    )

    device_model = SystemModel(HOST_L, AQUOMAN_40GB)
    for q in FIG17_QUERIES:
        sim = evaluation.simulations[q]
        pair = validate_device_timing(
            sim.trace, sim.device, TARGET_SF / db.scale_factor, device_model
        )
        cells[f"fig17.{q}.prototype_s"] = pair.prototype_s
        cells[f"fig17.{q}.simulator_s"] = pair.simulator_s
        cells[f"fig17.{q}.dram_peak_bytes"] = (
            sim.trace.aquoman_dram_peak_bytes
        )
    for q in ("q01", "q06"):
        trace = scale_trace(evaluation.simulations[q].trace, TARGET_SF)
        cells[f"sec8d.{q}.rows_per_s"] = table_cardinality(
            "lineitem", TARGET_SF
        ) / device_model.device_seconds(trace)
    for q, sim in sorted(evaluation.simulations.items()):
        cells[f"sec6e.{q}.offload_fraction"] = (
            sim.trace.offload_fraction_rows
        )
        for dram, traces in (("40GB", evaluation.aquoman_traces),
                             ("16GB", evaluation.aquoman16_traces)):
            cells[f"sec6e.{q}.suspend_{dram}"] = sorted(
                r for r in traces[q].suspend_reason.split(", ") if r
            )
        cells[f"sec6e.{q}.spill_groups"] = sim.trace.groupby_spill_groups

    sorter = SorterThroughputModel()
    random = np.random.default_rng(42).integers(0, 1 << 62, size=1 << 16)
    for kind, sample in (("sorted", np.sort(random)),
                         ("reverse", np.sort(random)[::-1]),
                         ("random", random)):
        alternation = sorter.alternation_probability(sample)
        for gb in (1, 10, 100, 1000):
            cells[f"table5.{gb}GB.{kind}_GBps"] = (
                sorter.throughput(gb * GB, alternation) / GB
            )
    for table, budgets in (("table3", component_inventory()),
                           ("table4", sorter_inventory())):
        for c in budgets:
            for field in ("comparators", "multipliers", "sram_bytes",
                          "pipeline_stages", "weight"):
                cells[f"{table}.{c.name}.{field}"] = getattr(c, field)

    probe = Engine(db, morsels=MorselConfig(
        parallel=True, morsel_rows=8192, n_workers=1
    ))
    probe.execute_relation(q6_class_plan())
    cells["morsel.q6_class.flash_bytes"] = probe.trace.total_flash_bytes
    # through JSON, so every value compares as the file holds it
    return json.loads(json.dumps(cells))


def moved_cells(want: dict, got: dict) -> list[str]:
    """``name: golden → now`` for every cell that differs."""
    moved = []
    for name in dict.fromkeys([*want, *got]):
        a, b = want.get(name), got.get(name)
        if isinstance(a, float) and isinstance(b, (int, float)):
            same = math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
        else:
            same = type(a) is type(b) and a == b
        if not same:
            moved.append(f"{name}: {a!r} → {b!r}")
    return moved


def assert_matches_golden(want: dict, got: dict) -> None:
    moved = moved_cells(want, got)
    assert not moved, f"{len(moved)} model cell(s) moved:\n" + "\n".join(
        f"  {line}" for line in moved
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def evaluation(small_db):
    return collect_traces(small_db, target_sf=TARGET_SF)


def test_model_cells_match_golden(small_db, evaluation, golden):
    # 22 queries x 5 systems, plus the five totals
    assert sum(name.startswith("fig16a.") for name in golden) == 115
    assert_matches_golden(golden, model_cells(small_db, evaluation))


def test_one_percent_model_change_fails_and_names_the_cells(
    small_db, evaluation, golden, monkeypatch
):
    monkeypatch.setattr(
        model, "STREAM_BYTES_PER_THREAD_S",
        model.STREAM_BYTES_PER_THREAD_S * 1.01,
    )
    with pytest.raises(AssertionError) as failure:
        assert_matches_golden(golden, model_cells(small_db, evaluation))
    message = str(failure.value)
    assert "fig16a.q02.L-AQUOMAN_s: " in message
    assert "fig16a.total.L_s: " in message
    # the trace-only cells did not move, so they are not named
    assert "fig17.q01.dram_peak_bytes" not in message


def test_any_moved_cell_is_named():
    want = {"a.x": 1.0, "a.n": 3, "a.set": ["p", "q"]}
    assert moved_cells(want, {**want, "a.x": 1.0 + 1e-12}) == []
    assert moved_cells(want, {"a.x": 1.0 + 1e-6, "a.n": 3.0}) == [
        "a.x: 1.0 → 1.000001", "a.n: 3 → 3.0", "a.set: ['p', 'q'] → None",
    ]


# -- EXPERIMENTS.md: the tables rendered from the golden ---------------------

BLOCK = re.compile(
    r"<!-- model_golden:(\w+) -->\n(.*?)<!-- /model_golden:\1 -->",
    re.DOTALL,
)


def _table(header, rows) -> list[str]:
    return [
        "| " + " | ".join(header) + " |", "|" + "---|" * len(header),
        *("| " + " | ".join(map(str, row)) + " |" for row in rows),
    ]


def _qs(queries) -> str:
    return ", ".join(f"q{int(q[1:])}" for q in queries) or "none"


def _gb(n) -> str:
    return f"{n / GB:.1f}"


def _pct(x) -> str:
    return f"{100 * x:.0f}%"


def render_blocks(g) -> dict[str, str]:
    """Each EXPERIMENTS.md section's generated block, from golden ``g``."""
    queries = sorted({n.split(".")[1] for n in g if n.startswith("fig16c")})
    systems = ("S", "L", "S-AQUOMAN", "L-AQUOMAN", "S-AQUOMAN16")

    def run(q, s):
        return g[f"fig16a.{q}.{s}_s"]

    def speedup(q):
        return run(q, "L") / run(q, "L-AQUOMAN")

    def speedups(*qs):
        return ", ".join(f"{_qs([q])} {speedup(q):.1f}×" for q in qs)

    def mem(s, what):
        return {q: g[f"fig16b.{q}.{s}.{what}_bytes"] for q in queries}

    def share(q):
        return g[f"fig16c.{q}.device_fraction"]

    def suspended(reason, dram="40GB"):
        return {q for q in queries
                if reason.value in g[f"sec6e.{q}.suspend_{dram}"]}

    def inventory(table, fields):
        names = dict.fromkeys(
            n.split(".")[1] for n in g if n.startswith(f"{table}.")
        )
        return _table(["module", *fields], [
            [name, *(round(g[f"{table}.{name}.{f}"]) for f in fields)]
            for name in names
        ])

    device = mem("L-AQUOMAN", "device_peak")
    peak_l, peak_aq = mem("L", "host_peak"), mem("L-AQUOMAN", "host_peak")
    top_l, top_aq, top_dev = (
        max(queries, key=d.get) for d in (peak_l, peak_aq, device)
    )
    fully = [q for q in queries if share(q) > 0.9]
    spill = [q for q in queries if g[f"sec6e.{q}.spill_groups"]]
    dram = SuspendReason.DRAM_EXCEEDED
    blocks = {
        "table5": _table(
            ["input", "paper sorted/reverse", "sorted", "reverse",
             "paper random", "random"],
            [[f"{gb} GB", paper_s,
              *(f"{g[f'table5.{gb}GB.{k}_GBps']:.1f}"
                for k in ("sorted", "reverse")),
              paper_r, f"{g[f'table5.{gb}GB.random_GBps']:.1f}"]
             for gb, paper_s, paper_r in (
                 (1, 4.4, 6.2), (10, 7.9, 11.0), (100, 8.5, 11.9),
                 (1000, 8.6, 12.0))],
        ),
        "fig16a": [
            *_table(
                ["query", *systems, "L ÷ L-AQUOMAN"],
                [[q, *(f"{run(q, s):.0f}" for s in systems),
                  f"{speedup(q):.1f}×"] for q in [*queries, "total"]],
            ),
            "",
            *_table(["shape claim (paper)", "measured"], [
                ["L-AQUOMAN 1.5–2× faster than L on average",
                 f"{speedup('total'):.2f}× (totals "
                 f"{run('total', 'L'):.0f} s → "
                 f"{run('total', 'L-AQUOMAN'):.0f} s)"],
                ["q17/q18 are the outliers (up to 13×)",
                 speedups(*sorted(queries, key=speedup)[:-3:-1])],
                ["disk-bound q6 (and q14) gain ~nothing",
                 speedups("q06", "q14")],
                ["string-bound q9/q13/q22 gain nothing",
                 speedups("q09", "q13", "q22")],
                ["S ≈ 1.6× slower than L on average",
                 f"{run('total', 'S') / run('total', 'L'):.1f}×"],
            ]),
        ],
        "fig16b": _table(["shape claim (paper)", "measured"], [
            ["max AQUOMAN DRAM over all queries = 40 GB",
             f"{_gb(device[top_dev])} GB ({_qs([top_dev])})"],
            ["queries needing more than 16 GB device DRAM",
             _qs(q for q in queries if device[q] > 16 * GB)],
            ["avg host RSS drops ~3× with AQUOMAN", "{:.1f}×".format(
                sum(mem("L", "host_avg").values())
                / sum(mem("L-AQUOMAN", "host_avg").values()))],
            ["max host RSS barely drops (Q18's host part)",
             f"L {_gb(peak_l[top_l])} GB ({_qs([top_l])}) → L-AQUOMAN "
             f"{_gb(peak_aq[top_aq])} GB ({_qs([top_aq])})"],
            ["baseline L peaks in tens-of-GB..DRAM range",
             f"{_gb(min(peak_l.values()))}–{_gb(peak_l[top_l])} GB"],
        ]),
        "fig16c": _table(["shape claim (paper)", "measured"], [
            ["~14 of 22 queries ~100% on device",
             f"{len(fully)} ({_qs(fully)})"],
            ["mean CPU cycles freed ≈ 71%",
             _pct(g["headline.mean_cpu_saving"])],
            ["q9/q13/(q16)/q22 ≈ 0% on device", ", ".join(
                f"{_qs([q])} {_pct(share(q))}"
                for q in ("q09", "q13", "q16", "q22"))],
        ]),
        "headline": _table(["claim", "paper", "measured"], [
            ["CPU cycles freed", "70%",
             _pct(g["headline.mean_cpu_saving"])],
            ["average DRAM saved", "60%",
             _pct(g["headline.mean_dram_saving"])],
            ["S-AQUOMAN16 total vs L total", "≈1.0×",
             f"{g['headline.S-AQUOMAN16_over_L']:.2f}×"],
            ["L ÷ L-AQUOMAN total", "1.5–2×", f"{speedup('total'):.2f}×"],
        ]),
        "fig17": _table(
            ["query", "prototype s", "simulator s", "error",
             "device DRAM GB, both sides"],
            [[q, f"{proto:.1f}", f"{sim:.1f}", _pct(abs(proto / sim - 1)),
              _gb(g[f"fig17.{q}.dram_peak_bytes"] * TARGET_SF / SF)]
             for q in FIG17_QUERIES
             for proto, sim in [(g[f"fig17.{q}.prototype_s"],
                                 g[f"fig17.{q}.simulator_s"])]],
        ),
        "sec8d": _table(
            ["query", "paper AQUOMAN", "measured", "paper FCAccel"],
            [[f"Q{n}", f"{aq} M rows/s",
              f"{g[f'sec8d.q0{n}.rows_per_s'] / 1e6:.0f} M rows/s",
              f"{fc} M rows/s"] for n, aq, fc in ((6, 100.5, 111),
                                                  (1, 69, 27))],
        ),
        "sec6e": _table(["class", "paper", "measured"], [
            ["fully offloaded (> 90% of rows)", "14 of 22",
             f"{sum(g[f'sec6e.{q}.offload_fraction'] > 0.9 for q in queries)}"
             f" of {len(queries)}"],
            ["mid-plan Aggregate-GroupBy", "q11, q17, q18, q22",
             _qs(sorted(suspended(SuspendReason.MID_PLAN_GROUPBY)))],
            ["regex/string-heap bound", "q9, q13, q16, q20",
             _qs(sorted(suspended(SuspendReason.STRING_HEAP)))],
            ["group-by spill", "7 queries; q18 ~1.5 B groups vs 1024 buckets",
             f"{len(spill)} queries ({_qs(spill)}); q18 "
             f"{g['sec6e.q18.spill_groups']} groups at SF {SF}"],
            ["affected by 16 GB device DRAM", "q4, q5, q8, q21",
             _qs(sorted(suspended(dram, "16GB") - suspended(dram)))],
        ]),
        "table34": [
            *inventory("table3", ("comparators", "multipliers",
                                  "sram_bytes", "weight")),
            "",
            *inventory("table4", ("comparators", "sram_bytes",
                                  "pipeline_stages", "weight")),
        ],
    }
    return {name: "\n".join(lines) + "\n" for name, lines in blocks.items()}


def test_experiments_tables_render_from_the_golden(golden):
    committed = dict(BLOCK.findall(EXPERIMENTS.read_text()))
    assert committed == render_blocks(golden)


def write_experiments(g) -> None:
    blocks = render_blocks(g)
    EXPERIMENTS.write_text(BLOCK.sub(
        lambda m: f"<!-- model_golden:{m[1]} -->\n{blocks[m[1]]}"
        f"<!-- /model_golden:{m[1]} -->",
        EXPERIMENTS.read_text(),
    ))


if __name__ == "__main__":
    db = tpch.generate(SF)
    cells = model_cells(db, collect_traces(db, target_sf=TARGET_SF))
    GOLDEN.write_text(json.dumps(cells, indent=1) + "\n")
    write_experiments(json.loads(GOLDEN.read_text()))
    print(f"wrote {GOLDEN} ({len(cells)} cells) and {EXPERIMENTS}")
