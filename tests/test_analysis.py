"""The static plan analyzer: typecheck, suspend prediction, PE-program
verification and morsel-safety proofs.

The load-bearing contract is the all-22-query cross-validation: every
NEVER/ALWAYS suspend verdict must match what the simulator actually
does, and every DEPENDS bracket must contain the observed value.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tpch
from repro.analysis import (
    PlanAnalysisWarning,
    PlanRejected,
    RawInstr,
    SuspendPredictor,
    Verdict,
    aggregate_merge_verdict,
    analyze_plan,
    fragment_verdicts,
    verify_instructions,
)
from repro.analysis.suspend import distinct_values
from repro.core import AquomanSimulator, DeviceConfig
from repro.core.pe import Opcode
from repro.engine import Engine
from repro.sqlir.expr import (
    AggFunc,
    Arith,
    ArithOp,
    col,
    lit,
)
from repro.sqlir.plan import (
    Aggregate,
    AggSpec,
    Filter,
    Project,
    Scan,
    assign_node_ids,
)
from repro.util.units import GB

CONFIG = DeviceConfig(dram_bytes=40 * GB, scale_ratio=1000 / 0.01)


def _codes(diagnostics):
    return {d.code for d in diagnostics}


# ---------------------------------------------------------------------------
# Cross-validation: predictions vs the simulator, all 22 queries
# ---------------------------------------------------------------------------


class TestSuspendAgreement:
    @pytest.fixture(scope="class")
    def outcomes(self, small_db):
        """(report, observed reasons, spill, DRAM peak) per query."""
        runs = {}
        for n in tpch.ALL_QUERIES:
            report = analyze_plan(
                tpch.query(n), small_db, device=CONFIG
            )
            sim = AquomanSimulator(small_db, CONFIG).run(tpch.query(n))
            peak = (
                sim.device.memory.peak_effective
                if sim.device is not None
                else 0
            )
            runs[n] = (
                report,
                {r.name for r in sim.suspend_reasons},
                sim.trace.groupby_spill_groups,
                peak,
            )
        return runs

    @pytest.mark.parametrize("n", tpch.ALL_QUERIES)
    def test_no_false_verdicts(self, outcomes, n):
        report, observed, spill, peak = outcomes[n]
        for name, p in report.suspend.items():
            if p.verdict is Verdict.NEVER:
                assert name not in observed, (
                    f"q{n}: predicted NEVER but {name} suspended"
                )
            elif p.verdict is Verdict.ALWAYS:
                assert name in observed, (
                    f"q{n}: predicted ALWAYS but {name} did not suspend"
                )

    @pytest.mark.parametrize("n", tpch.ALL_QUERIES)
    def test_spill_brackets(self, outcomes, n):
        report, _, spill, _ = outcomes[n]
        p = report.suspend["GROUP_SPILL"]
        if p.verdict is Verdict.NEVER:
            assert spill == 0
        else:
            assert p.lo <= spill, f"q{n}: {spill} below bracket {p.lo}"
            if p.hi is not None:
                assert spill <= p.hi, (
                    f"q{n}: {spill} above bracket {p.hi}"
                )

    @pytest.mark.parametrize("n", tpch.ALL_QUERIES)
    def test_dram_brackets(self, outcomes, n):
        report, _, _, peak = outcomes[n]
        p = report.suspend["DRAM_EXCEEDED"]
        if p.hi is not None:
            assert peak <= p.hi, f"q{n}: peak {peak} above {p.hi}"

    def test_exact_assisted_spills(self, outcomes):
        # Q17/Q18 spill counts are deterministic: NDV - 1024 exactly.
        for n, expected in ((17, 976), (18, 13976)):
            p = outcomes[n][0].suspend["GROUP_SPILL"]
            assert p.verdict is Verdict.ALWAYS
            assert (p.lo, p.hi) == (expected, expected)

    @pytest.mark.parametrize("n", tpch.ALL_QUERIES)
    def test_typecheck_clean(self, outcomes, n):
        assert outcomes[n][0].ok, [
            str(d) for d in outcomes[n][0].errors()
        ]


# ---------------------------------------------------------------------------
# Typecheck negatives
# ---------------------------------------------------------------------------


class TestTypecheck:
    def test_unknown_column(self, tiny_db):
        plan = Filter(
            Scan("lineitem", ("l_quantity",)),
            Compare_lt(col("no_such_column"), lit(10)),
        )
        report = analyze_plan(plan, tiny_db, passes=("types",))
        assert "AQ101" in _codes(report.errors())

    def test_unknown_table(self, tiny_db):
        report = analyze_plan(
            Scan("no_such_table"), tiny_db, passes=("types",)
        )
        assert "AQ110" in _codes(report.errors())

    def test_string_arithmetic_is_a_dtype_error(self, tiny_db):
        plan = Project(
            Scan("part", ("p_type", "p_size")),
            (("bad", Arith(ArithOp.ADD, col("p_type"), lit(1))),),
        )
        report = analyze_plan(plan, tiny_db, passes=("types",))
        assert "AQ102" in _codes(report.errors())

    def test_string_aggregate_operand(self, tiny_db):
        plan = Aggregate(
            Scan("part", ("p_type",)),
            (),
            (AggSpec("s", AggFunc.SUM, col("p_type")),),
        )
        report = analyze_plan(plan, tiny_db, passes=("types",))
        assert "AQ103" in _codes(report.errors())

    def test_count_star_needs_no_expr_but_sum_does(self, tiny_db):
        plan = Aggregate(
            Scan("part", ("p_size",)),
            (),
            (AggSpec("s", AggFunc.SUM, None),),
        )
        report = analyze_plan(plan, tiny_db, passes=("types",))
        assert "AQ103" in _codes(report.errors())

    def test_non_bool_predicate_warns(self, tiny_db):
        plan = Filter(Scan("part", ("p_size",)), col("p_size"))
        report = analyze_plan(plan, tiny_db, passes=("types",))
        assert report.ok  # a warning, not an error
        assert "AQ106" in _codes(report.warnings())

    def test_scale_mismatch_join_keys_warn(self, tiny_db):
        from repro.sqlir.plan import Join

        plan = Join(
            Scan("lineitem", ("l_partkey", "l_extendedprice")),
            Scan("part", ("p_partkey",)),
            "l_extendedprice",  # scale-2 decimal vs scale-0 key
            "p_partkey",
        )
        report = analyze_plan(plan, tiny_db, passes=("types",))
        assert "AQ112" in _codes(report.warnings())

    def test_all_queries_assign_node_ids(self, tiny_db):
        plan = tpch.query(21)
        n = assign_node_ids(plan)
        seen = [node.node_id for node in plan.walk()]
        assert len(set(seen)) == len(seen)
        assert max(seen) < n


def Compare_lt(left, right):
    from repro.sqlir.expr import Compare, CompareOp

    return Compare(CompareOp.LT, left, right)


# ---------------------------------------------------------------------------
# PE-program verification
# ---------------------------------------------------------------------------


class TestPeVerifier:
    def test_register_out_of_range(self):
        out = verify_instructions(
            [RawInstr(Opcode.PASS, rd=9, rs=0)], n_inputs=1
        )
        assert "AQ301" in _codes(out)

    def test_illegal_opcode_and_stray_immediate(self):
        out = verify_instructions(
            [
                RawInstr("nop"),
                RawInstr(Opcode.PASS, rd=0, rs=0, imm=3),
            ],
            n_inputs=1,
        )
        assert {"AQ302"} <= _codes(out)

    def test_imem_overflow(self):
        program = [RawInstr(Opcode.PASS, rd=0, rs=0)] * 9
        out = verify_instructions(program, imem_size=8, n_inputs=9)
        assert "AQ303" in _codes(out)

    def test_div_by_zero_immediate_warns(self):
        out = verify_instructions(
            [RawInstr(Opcode.DIV, rd=0, rs=0, imm=0)], n_inputs=1
        )
        found = [d for d in out if d.code == "AQ304"]
        assert found and found[0].severity.name == "WARNING"

    def test_fifo_underflow(self):
        # ADD with no immediate pops the operand FIFO, which is empty.
        out = verify_instructions(
            [RawInstr(Opcode.ADD, rd=0, rs=0)], n_inputs=1
        )
        assert "AQ305" in _codes(out)

    def test_uninitialised_register_read(self):
        out = verify_instructions(
            [RawInstr(Opcode.PASS, rd=0, rs=3)], n_inputs=0
        )
        assert "AQ306" in _codes(out)

    def test_stream_imbalance(self):
        out = verify_instructions(
            [RawInstr(Opcode.PASS, rd=0, rs=0)], n_inputs=2
        )
        assert "AQ307" in _codes(out)

    def test_clean_program_verifies(self):
        program = [
            RawInstr(Opcode.STORE, rs=0),
            RawInstr(Opcode.ADD, rd=0, rs=0),
        ]
        assert verify_instructions(program, n_inputs=2) == []

    def test_real_lowered_graphs_are_clean(self, tiny_db):
        # Every PE program the dataflow compiler emits for TPC-H must
        # verify silently (AQ308 fallbacks aside).
        for n in tpch.ALL_QUERIES:
            report = analyze_plan(
                tpch.query(n), tiny_db, device=CONFIG, passes=("pe",)
            )
            hard = [
                d for d in report.diagnostics if d.code != "AQ308"
            ]
            assert hard == [], [str(d) for d in hard]


# ---------------------------------------------------------------------------
# Morsel-safety proofs
# ---------------------------------------------------------------------------


class TestMorselSafety:
    def test_avg_is_not_mergeable(self, tiny_db):
        scan = Scan("lineitem", ("l_quantity",))
        agg = Aggregate(
            scan, (), (AggSpec("a", AggFunc.AVG, col("l_quantity")),)
        )
        verdict = aggregate_merge_verdict(agg, scan, (), tiny_db)
        assert not verdict.mergeable
        assert verdict.code == "AQ401"

    def test_float_sum_is_not_mergeable(self, tiny_db):
        scan = Scan("lineitem", ("l_quantity", "l_extendedprice"))
        expr = Arith(
            ArithOp.DIV, col("l_extendedprice"), col("l_quantity")
        )
        agg = Aggregate(scan, (), (AggSpec("s", AggFunc.SUM, expr),))
        verdict = aggregate_merge_verdict(agg, scan, (), tiny_db)
        assert not verdict.mergeable
        assert verdict.code == "AQ402"

    def test_int_sum_is_mergeable(self, tiny_db):
        scan = Scan("lineitem", ("l_extendedprice", "l_discount"))
        expr = Arith(
            ArithOp.MUL, col("l_extendedprice"), col("l_discount")
        )
        agg = Aggregate(scan, (), (AggSpec("s", AggFunc.SUM, expr),))
        assert aggregate_merge_verdict(agg, scan, (), tiny_db).mergeable

    def test_verdicts_cover_subquery_fragments(self, tiny_db):
        # Q17 embeds its AVG inside a scalar subquery: the analyzer must
        # find that fragment and refuse it.
        verdicts = fragment_verdicts(tpch.query(17), tiny_db)
        assert any(v.code == "AQ401" for v in verdicts)
        # Q6's int-sum fragment, by contrast, proves mergeable.
        assert all(
            v.mergeable for v in fragment_verdicts(tpch.query(6), tiny_db)
        )

    def test_agrees_with_morsel_executor(self, tiny_db):
        # The analyzer verdict is the morsel executor's merge decision;
        # differential bit-identity is already covered by
        # test_morsel_differential — here we check the verdict drives
        # fragment extraction.
        from repro.engine.morsel import extract_fragment

        scan = Scan("lineitem", ("l_quantity",))
        avg = Aggregate(
            scan, (), (AggSpec("a", AggFunc.AVG, col("l_quantity")),)
        )
        assert extract_fragment(avg, tiny_db) is None
        count = Aggregate(scan, (), (AggSpec("c", AggFunc.COUNT),))
        frag = extract_fragment(count, tiny_db)
        assert frag is not None and frag.kind == "aggregate"


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------


class TestEngineModes:
    def _bad_plan(self):
        return Project(
            Scan("part", ("p_type",)),
            (("bad", Arith(ArithOp.ADD, col("p_type"), lit(1))),),
        )

    def test_strict_rejects_before_execution(self, tiny_db):
        engine = Engine(tiny_db, analyze="strict")
        with pytest.raises(PlanRejected) as err:
            engine.execute_relation(self._bad_plan())
        assert "AQ102" in str(err.value)

    def test_strict_gate_survives_address_reuse(self, tiny_db):
        # The engine remembers which plans it analysed.  A dropped
        # plan's address is handed to the next plan of its size, so a
        # memory of addresses let that plan through unanalysed.
        engine = Engine(tiny_db, analyze="strict")
        analysed: set[int] = set()
        for _ in range(1000):
            good = Project(
                Scan("part", ("p_size",)),
                (("ok", Arith(ArithOp.ADD, col("p_size"), lit(1))),),
            )
            engine.execute_relation(good)
            analysed.add(id(good))
            del good
            held = []  # keeps each candidate's address taken
            for _ in range(8):
                bad = self._bad_plan()
                if id(bad) in analysed:
                    with pytest.raises(PlanRejected):
                        engine.execute_relation(bad)
                    return
                held.append(bad)
        pytest.skip("the allocator never reused a plan's address")

    def test_warn_warns_and_proceeds(self, tiny_db):
        engine = Engine(tiny_db, analyze="warn")
        plan = Filter(
            Scan("part", ("p_size",)), col("p_size")  # non-BOOL predicate
        )
        with pytest.warns(PlanAnalysisWarning, match="AQ106"):
            rel = engine.execute_relation(plan)
        assert rel.nrows >= 0

    def test_strict_passes_clean_plans(self, tiny_db):
        engine = Engine(tiny_db, analyze="strict")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = engine.execute(tpch.query(6))
        assert table.nrows == 1

    def test_mode_is_validated(self, tiny_db):
        with pytest.raises(ValueError):
            Engine(tiny_db, analyze="sometimes")

    def test_off_mode_executes_bad_plans_silently(self, tiny_db):
        # Without analysis the runtime happily adds 1 to the string's
        # dictionary *code* — garbage the analyzer exists to catch.
        engine = Engine(tiny_db)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rel = engine.execute_relation(self._bad_plan())
        assert rel.nrows == tiny_db.table("part").nrows


class TestSuspendPredictorUnit:
    def test_never_proof_uses_collision_freedom(self, small_db):
        # Q1's two CHAR(1) keys have a 6-tuple candidate domain that
        # hashes collision-free: a NEVER verdict, not just a bracket.
        report = analyze_plan(tpch.query(1), small_db, device=CONFIG)
        assert report.suspend["GROUP_SPILL"].verdict is Verdict.NEVER

    def test_assisted_prediction_is_exact(self, small_db):
        predictor = SuspendPredictor(small_db, CONFIG)
        predictions, _ = predictor.predict(tpch.query(17))
        p = predictions["GROUP_SPILL"]
        assert p.verdict is Verdict.ALWAYS
        assert p.lo == p.hi == 976

    def test_queries_without_device_aggregates_are_never(self, small_db):
        predictions, _ = SuspendPredictor(small_db, CONFIG).predict(
            tpch.query(6)
        )
        assert all(
            p.verdict is Verdict.NEVER for p in predictions.values()
        )


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def _columns(draw) -> np.ndarray:
    """Dense to sparse integer columns, as stored, ascending or sorted
    block by block, reaching both int64 edges."""
    lo = draw(st.sampled_from([_INT64_MIN, -7, 0, 2**40, _INT64_MAX - 40]))
    span = draw(st.sampled_from([1, 5, 64, 4096, 2**50, 2**64]))
    hi = min(lo + span - 1, _INT64_MAX)
    values = draw(st.lists(st.integers(lo, hi), max_size=300))
    if draw(st.booleans()):
        values += draw(st.lists(st.sampled_from([_INT64_MIN, _INT64_MAX])))
    order = draw(st.sampled_from(["stored", "ascending", "blocks"]))
    if order == "ascending":
        values.sort()
    elif order == "blocks":
        block = draw(st.integers(1, 64))
        values = [
            v for i in range(0, len(values), block)
            for v in sorted(values[i:i + block])
        ]
    column = np.array(values, dtype=np.int64)
    if len(column) and _INT64_MIN < lo and hi < 2**31 and (
        draw(st.booleans())
    ):
        column = column.astype(np.int32)
    return column


class TestDistinctValues:
    """Every route of the analyzer's one distinct pass answers exactly
    what ``np.unique`` answers."""

    @given(_columns())
    @settings(max_examples=300, deadline=None)
    def test_equals_np_unique(self, column):
        out = distinct_values(column)
        assert out.dtype == np.int64
        assert np.array_equal(out, np.unique(column.astype(np.int64)))

    def test_ndv_is_the_domain_size(self, small_db):
        from repro.analysis.suspend import column_ndv

        for name in ("l_orderkey", "l_partkey", "l_quantity"):
            values = small_db.table("lineitem").column(name).values
            assert column_ndv(small_db, "lineitem", name) == len(
                np.unique(values)
            )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestAnalyzeCli:
    def test_human_report(self, capsys):
        from repro.__main__ import main

        assert main(["analyze", "17", "--sf", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "suspend predictions" in out
        assert "GROUP_SPILL" in out

    def test_json_report(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["analyze", "1", "--sf", "0.002", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert set(payload["suspend"]) == {
            "MID_PLAN_GROUPBY",
            "STRING_HEAP",
            "GROUP_SPILL",
            "DRAM_EXCEEDED",
        }

    def test_strict_exit_code(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "analyze",
                "--sql",
                "SELECT p_type + 1 AS bad FROM part",
                "--sf",
                "0.002",
                "--strict",
            ]
        )
        assert code == 1
        assert "AQ102" in capsys.readouterr().out
