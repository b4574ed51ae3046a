"""The calibration kernel: a frozen yardstick for machine speed.

This box's speed wanders 10-15 % in regimes that last 5-20 s, so a
wall-clock sample is only comparable to another after dividing by how
fast the machine was when it was taken.  The kernel below is that
measurement: fixed inputs (its own seed, never ``--seed``) and two
parts, because the machine's regimes do not slow all code alike.  The
*numeric* part is the operation mix of the engine's hot loops (stable
argsort, gather, mask-compress, integer multiply / floor-divide, float
axpy-reduce) over a working set of about 6 MB; the *interpreter* part
is what surrounds those loops in a Python program (dict, tuple and
string churn, dispatch of NumPy calls on tiny arrays).  Over ten
minutes of interleaved sampling on the builder's box, queries re-timed
by the numeric part alone repeated within 4.0 % (interquartile, 18 s
medians, raw wall clock: 17.5 %); with the interpreter part at about
0.4 of the numeric part's run time, within 3.0 %, and no query class
got worse.  Interpreter-only yardsticks were worse than either.

Nothing here may change once results are committed: every reported
``*_s`` / ``*_ms`` metric is scaled by this kernel's run time, so a
faster or slower kernel would move them all.  ``test_harness.py`` pins
its output checksum.
"""

from __future__ import annotations

import time

import numpy as np

# The run times the two parts are *declared* to have.  A sample's
# reference time is its wall time divided by the machine's slowdown: the
# weighted mean of how much slower than declared each part ran.  On a
# machine (or in a regime) where both parts take their nominal time,
# reference time is wall time.
NUMERIC_NOMINAL_MS = 5.6
INTERPRETER_NOMINAL_MS = 2.4
CALIB_NOMINAL_MS = NUMERIC_NOMINAL_MS + INTERPRETER_NOMINAL_MS
KERNEL_SEED = 20200926
KERNEL_CHECKSUM = 35269893790   # what run() returns; pinned by the tests

N_SORT = 35_000
N_TABLE = 600_000
N_GATHER = 100_000
N_OBJECTS = 1_500
N_TINY_CALLS = 500


class Kernel:
    """Fixed inputs plus the one function that is timed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(KERNEL_SEED)
        self.sort_keys = rng.integers(0, 1 << 40, N_SORT, dtype=np.int64)
        self.table = rng.integers(0, 1_000_000, N_TABLE, dtype=np.int64)
        self.row_ids = rng.integers(0, N_TABLE, N_GATHER, dtype=np.int64)
        self.x = rng.random(N_GATHER)
        self.y = rng.random(N_GATHER)
        self.tiny = np.arange(64, dtype=np.int64)

    def _numeric(self) -> int:
        order = np.argsort(self.sort_keys, kind="stable")
        gathered = self.table[self.row_ids]
        kept = gathered[(gathered & 1) == 0]
        scaled = (kept * 7 + 3) // 5
        axpy = float((2.5 * self.x + self.y).sum())
        return (
            int(order[::97].sum())
            + int(scaled.sum())
            + int(axpy * 1000)
        )

    def _interpreter(self) -> int:
        seen: dict[int, tuple[int, str]] = {}
        for i in range(N_OBJECTS):
            seen[i % 97] = (i, str(i))
        ranked = sorted(seen.items())
        tiny = self.tiny
        for _ in range(N_TINY_CALLS):
            tiny = (tiny + 1) * 3 // 2 % 1009
        return ranked[0][1][0] + len(ranked[-1][1][1]) + int(tiny.sum())

    def run(self) -> int:
        """One kernel execution; returns a checksum of what it computed."""
        return self._numeric() + self._interpreter()

    def timed(self) -> tuple[float, float]:
        """Seconds the numeric and the interpreter part took."""
        t0 = time.perf_counter()
        self._numeric()
        t1 = time.perf_counter()
        self._interpreter()
        return t1 - t0, time.perf_counter() - t1


def slowdown(numeric_s: float, interpreter_s: float,
             interpreter_share: float) -> float:
    """How much slower than nominal the machine ran (1.0 = nominal).

    ``interpreter_share`` is the workload's: the share of its time that
    behaves like the interpreter part rather than the numeric part.
    """
    return (
        (1.0 - interpreter_share) * numeric_s * 1e3 / NUMERIC_NOMINAL_MS
        + interpreter_share * interpreter_s * 1e3 / INTERPRETER_NOMINAL_MS
    )
