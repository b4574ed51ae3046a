"""Shared fixtures: small TPC-H catalogs, sized per test cost.

``HYPOTHESIS_PROFILE=long`` loads a profile of 2 000 examples per
property: a property that fixes its own count keeps it unless it asks
for the larger of the two, as the kernel route properties do (CI runs
them once more under it).  Unset, Hypothesis keeps its defaults.
"""

import os
import signal

import pytest
from hypothesis import settings

from repro import tpch
from repro.engine import procpool

settings.register_profile("long", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def tiny_db():
    """A very small catalog for per-operator tests (~6k lineitems)."""
    return tpch.generate(0.001)


@pytest.fixture(scope="session")
def small_db():
    """The integration-scale catalog (~60k lineitems)."""
    return tpch.generate(0.01)


@pytest.fixture(scope="session")
def sf05_db():
    """The benchmark's catalog (~300k lineitems, seed 1): where Q18's
    HAVING keeps orders and its groups split across spans."""
    return tpch.generate(0.05, 1)


@pytest.fixture()
def dead_worker_pool(small_db):
    """``small_db``'s two-worker pool with worker 0 SIGKILLed.

    The pool is closed afterwards: a pool is replaced only when all its
    workers are dead, so one left half dead would hand every later test
    a single live worker.
    """
    pool = procpool.get_process_pool(small_db, 2)
    assert pool is not None and pool.alive_count() == 2
    victim = pool.workers[0]
    os.kill(victim.proc.pid, signal.SIGKILL)
    victim.proc.join(timeout=5.0)
    assert not victim.proc.is_alive()
    yield pool
    procpool._close_pool((id(small_db), 2))
