"""Pin the process environment before anything heavy is imported.

One process, one thread, fixed hash seed: BLAS/OpenMP pools would make
run time depend on what else the two cores are doing, and string-hash
randomisation reorders every set the planner and compiler iterate.
The thread variables only work if set before NumPy is first imported,
the hash seed only at interpreter start — hence ``reexec_pinned``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def reexec_pinned() -> None:
    """Restart this interpreter with the pinned environment, once."""
    if all(os.environ.get(k) == v for k, v in PINNED.items()):
        return
    os.environ.update(PINNED)
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, *sys.argv])


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src``, nowhere else.

    The benchmark measures the program it was checked out with; if the
    source is missing there is nothing to measure and it must not fall
    back to some installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure at {src}/repro")
    sys.path.insert(0, str(src))
