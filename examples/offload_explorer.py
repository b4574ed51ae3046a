"""Explore why each TPC-H query does (or doesn't) offload.

Prints, per query: the compiler's offload boundary, the suspension
reasons (the paper's Sec. VI-E conditions), device DRAM needs at
SF-1000, and the effect of shrinking device DRAM to 16 GB — a tour of
the decision machinery behind Fig. 16(c).

    python examples/offload_explorer.py [query_number]
"""

import sys

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.core.compiler import QueryCompiler
from repro.util.units import GB, fmt_bytes

DATA_SF = 0.01
TARGET_SF = 1000.0
RATIO = TARGET_SF / DATA_SF


def explain(db, number: int) -> None:
    name = f"q{number:02d}"
    plan = tpch.query(number)

    compiler = QueryCompiler(db, scale_ratio=RATIO)
    compiled = compiler.compile(plan)

    print(f"\n=== {name} ===")
    print("plan and per-node offload decisions:")
    for node in plan.walk():
        decision = compiled.decision(node)
        verdict = "DEVICE" if decision.offloadable else "host  "
        extra = (
            f"  <- {decision.reason.value}"
            if not decision.offloadable
            else ""
        )
        print(f"  [{verdict}] {node!r}{extra}")

    roots = compiled.offload_roots()
    print(f"offload roots: {len(roots)}")

    for dram in (40 * GB, 16 * GB):
        cfg = DeviceConfig(dram_bytes=dram, scale_ratio=RATIO)
        result = AquomanSimulator(db, cfg).run(plan, query=name)
        trace = result.trace
        print(
            f"with {fmt_bytes(dram)} device DRAM: "
            f"rows-on-device={trace.offload_fraction_rows:.0%}, "
            f"flash={fmt_bytes(trace.aquoman_flash_bytes * RATIO)}"
            f"@SF1000, "
            f"DRAM-peak={fmt_bytes(trace.aquoman_dram_peak_bytes * RATIO)}"
            f"@SF1000, "
            f"suspended={trace.suspend_reason or 'no'}"
        )


def main() -> None:
    print(f"Generating TPC-H at SF {DATA_SF}...")
    db = tpch.generate(DATA_SF)
    numbers = (
        [int(sys.argv[1])] if len(sys.argv) > 1 else list(tpch.ALL_QUERIES)
    )
    for number in numbers:
        explain(db, number)


if __name__ == "__main__":
    main()
