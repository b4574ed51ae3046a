"""The untimed prepare step, run as a child of ``run.py``.

Generates the catalog from the seed, saves it as column files and
computes the workload's reference digests on its *other* execution
path.  Everything the measuring process needs comes back through
``<out>/catalog`` and ``<out>/prepare.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import envpin


def main(argv: list[str]) -> int:
    envpin.use_checkout_source()
    from check import digest
    from workloads import WORKLOADS

    from repro import tpch
    from repro.storage.io import save_catalog

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--scale-factor", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = dataclasses.replace(
        WORKLOADS[args.workload], scale_factor=args.scale_factor
    )

    t0 = time.perf_counter()
    catalog = tpch.generate(workload.scale_factor, args.seed)
    generate_s = time.perf_counter() - t0
    catalog_dir = args.out / "catalog"
    t0 = time.perf_counter()
    save_catalog(catalog, catalog_dir)
    save_s = time.perf_counter() - t0

    runner = workload.reference_runner(catalog, args.seed)
    references = {
        name: digest(runner.run(name).table) for name in runner.names
    }
    doc = {
        "generate_s": generate_s,
        "save_s": save_s,
        "bytes_on_disk": sum(
            f.stat().st_size for f in catalog_dir.rglob("*") if f.is_file()
        ),
        "references": references,
    }
    (args.out / "prepare.json").write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
