"""The persistent forked worker pool behind ``worker_backend="process"``.

The morsel engine fans span-shaped work out to workers.
:func:`get_process_pool` keeps one :class:`ProcessPool` per
``(catalog, n_workers)``: workers are **forked once** and reused.
Forking shares the catalog's column arrays copy-on-write, and each
worker re-opens mmap-backed column files by path
(:func:`repro.storage.io.reopen_mapped_columns`), so column pages
flow zero-copy through the OS page cache — the only things pickled
per dispatch are the fragment description, ``[lo, hi)`` span
batches, and the serialized partials coming back.

Dispatch is **batched**: :func:`make_batches` sends several morsels
per IPC round-trip (:data:`DISPATCH_ROUNDS` batches per worker, one),
amortising the per-message and per-window cost the same way bigger
morsels amortise per-span overhead.

Workers repatriate their observability state with every reply: span
records from a per-batch :class:`~repro.obs.spans.Tracer` (Linux's
``CLOCK_MONOTONIC`` is system-wide, so worker timestamps align with
the parent's epoch), ``faults.*`` counter deltas from a per-batch
:class:`~repro.faults.injector.FaultInjector` rebuilt from the pure
``(seed, config)`` plan, and the degraded flag.  The parent adopts
the records into its tracer lanes (``proc-worker-N``) and absorbs the
fault deltas, so the doctor, Chrome-trace export and the fault
injector see exactly what inline spans would have recorded.

A worker that dies mid-run (``kill -9``, OOM) is detected by pipe
EOF; its unfinished batches are reported ``lost`` and the caller
re-runs them inline — spans are pure functions of their range, so
recovery is bit-identical.  When the platform has no ``fork`` start
method, or no worker is left alive, the spans run inline with one
warning.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import traceback
import warnings
import weakref
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_readable
from typing import Any

from repro.faults.errors import UnrecoverableFault
from repro.faults.injector import (
    FaultInjector,
    get_fault_injector,
    set_fault_injector,
)
from repro.faults.plan import FaultConfig, FaultPlan
from repro.obs import NULL_TRACER
from repro.obs.context import (
    QueryContext,
    clear_degraded,
    get_degraded,
    get_query_context,
    set_query_context,
)
from repro.obs.spans import Tracer, set_global_tracer

__all__ = [
    "DISPATCH_ROUNDS",
    "PoolBroken",
    "ProcessPool",
    "Reply",
    "absorb_obs",
    "batch_opts",
    "get_process_pool",
    "make_batches",
    "process_backend_available",
]

# Batches queued per worker per fragment.  A batch runs as one window,
# which pays a fixed cost (selector set-up, page split, partial,
# pickling) once, so one batch per worker is the fastest rule measured:
# ``engine.procpool_pass_s`` of a traced ``tpch_stream`` run at SF 0.05,
# 2 workers, three runs each, 0.158 / 0.153 / 0.162 s at one round,
# 0.186 / 0.174 / 0.173 at two and 0.192 / 0.197 / 0.201 at four
# (DESIGN.md §10).
DISPATCH_ROUNDS = 1
_WORKER_LANE = "proc-worker-{wid}"


class PoolBroken(RuntimeError):
    """Raised when a process pool has no live workers left."""


# ---------------------------------------------------------------------------
# Batch protocol helpers
# ---------------------------------------------------------------------------


def make_batches(
    spans: list[tuple[int, int]], n_workers: int
) -> list[list[tuple[int, int]]]:
    """Chunk spans into per-dispatch batches (N morsels per IPC trip)."""
    per = max(1, -(-len(spans) // (n_workers * DISPATCH_ROUNDS)))
    return [spans[k:k + per] for k in range(0, len(spans), per)]


def batch_opts(tracer: Any) -> dict:
    """Ambient state a worker must reproduce for one batch.

    Fault decisions are pure functions of ``(seed, site)``, so shipping
    the plan's seed and config — never the injector's mutable state —
    reproduces the exact fault placement inline spans see.
    """
    injector = get_fault_injector()
    fault = None
    if injector.enabled:
        fault = (injector.plan.seed, injector.config.to_dict())
    ctx = get_query_context()
    return {
        "trace": bool(getattr(tracer, "enabled", False)),
        "fault": fault,
        "ctx": ctx.to_wire() if ctx is not None else None,
    }


@dataclass
class Reply:
    """One batch's outcome as seen by the parent."""

    status: str                  # "done" | "fault" | "err" | "lost"
    wid: int = -1
    result: Any = None           # handler output when "done"
    message: str = ""            # fault text or remote traceback
    site: str = ""
    degraded: dict | None = None
    obs: dict | None = None


def absorb_obs(reply: Reply, tracer: Any, injector: Any) -> None:
    """Merge one worker reply's spans and fault deltas into the parent."""
    obs = reply.obs
    if not obs:
        return
    records = obs.get("records")
    if records and getattr(tracer, "enabled", False):
        tracer.adopt(_WORKER_LANE.format(wid=reply.wid), records)
    faults = obs.get("faults")
    if faults and injector.enabled:
        injector.absorb(faults)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _WorkerState:
    """Per-process caches: the inherited catalog and its flash layout."""

    def __init__(self, catalog: Any) -> None:
        from repro.storage.io import reopen_mapped_columns

        self.catalog = catalog
        # Disk-backed columns: drop the fork-inherited mappings and
        # re-open each column file by path.  The pages stay shared
        # (one OS page-cache copy serves every worker); the worker
        # just owns its file descriptors.
        reopen_mapped_columns(catalog)
        self._layout: Any = None

    def layout(self) -> Any:
        if self._layout is None:
            from repro.storage.layout import FlashLayout

            self._layout = FlashLayout(self.catalog)
        return self._layout


def _injector_from(spec: tuple | None) -> FaultInjector | None:
    if spec is None:
        return None
    seed, config = spec
    return FaultInjector(FaultPlan(seed, FaultConfig(**config)))


def _obs(tracer: Tracer | None,
         injector: FaultInjector | None) -> dict | None:
    obs: dict = {}
    if tracer is not None:
        obs["records"] = [record for _, record in tracer.records()]
    if injector is not None:
        counts = {k: v for k, v in injector.counts.items() if v}
        if counts or injector.events:
            obs["faults"] = {
                "counts": counts,
                "events": list(injector.events),
                "backoff_s": injector.backoff_s,
                "stall_s": injector.stall_s,
            }
    return obs or None


def _run_morsel_batch(state: _WorkerState, fragment: Any,
                      spans: list, tracer: Tracer | None) -> tuple:
    """One batch, run as one window by a runner of its own."""
    from repro.engine.morsel import SpanRunner, pack_partial

    runner = SpanRunner.for_catalog(
        state.catalog, state.layout(), fragment,
        tracer if tracer is not None else NULL_TRACER,
    )
    return pack_partial(runner.run_window(spans), runner.heap_names())


def _handle(state: _WorkerState, wid: int, msg: tuple) -> tuple:
    _, req_id, fragment, spans, opts = msg
    tracer = Tracer() if opts.get("trace") else None
    injector = _injector_from(opts.get("fault"))
    ctx_wire = opts.get("ctx")
    set_global_tracer(tracer)
    set_fault_injector(injector)
    # The batch header carries the parent's query identity; installing
    # it here makes the worker's spans carry the same qid the parent
    # stamps, so repatriated records need no rewriting.
    set_query_context(
        QueryContext.from_wire(ctx_wire) if ctx_wire is not None else None
    )
    clear_degraded()
    try:
        result = _run_morsel_batch(state, fragment, spans, tracer)
        return ("done", req_id, wid, result, _obs(tracer, injector))
    except UnrecoverableFault as fault:
        return (
            "fault", req_id, wid, str(fault), fault.site,
            get_degraded(), _obs(tracer, injector),
        )
    except Exception:
        return ("err", req_id, wid, traceback.format_exc())
    finally:
        set_global_tracer(None)
        set_fault_injector(None)
        set_query_context(None)
        clear_degraded()


def _worker_main(conn: Any, catalog: Any, wid: int) -> None:
    # The fork copied the parent's ambient singletons; this process
    # records into fresh per-batch instances only.
    set_global_tracer(None)
    set_fault_injector(None)
    set_query_context(None)
    clear_degraded()
    state = _WorkerState(catalog)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "exit":
            break
        try:
            conn.send(_handle(state, wid, msg))
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    wid: int
    proc: Any
    conn: Any
    alive: bool = field(default=True)


class ProcessPool:
    """A persistent set of forked workers sharing one catalog.

    Workers are forked once and reused across fragments and queries;
    each request is a batch of spans, each reply carries serialized
    partials plus the worker's span records and fault deltas.
    """

    def __init__(self, catalog: Any, n_workers: int) -> None:
        ctx = multiprocessing.get_context("fork")
        self.n_workers = n_workers
        self.workers: list[_Worker] = []
        for wid in range(n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, catalog, wid),
                name=_WORKER_LANE.format(wid=wid),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.workers.append(_Worker(wid, proc, parent_conn))

    def alive_count(self) -> int:
        return sum(
            1 for w in self.workers if w.alive and w.proc.is_alive()
        )

    def _mark_dead(self, worker: _Worker) -> None:
        worker.alive = False
        try:
            worker.conn.close()
        except OSError:
            pass

    def run(self, requests: list[tuple], opts: dict) -> list[Reply]:
        """Dispatch ``(fragment, spans)`` batches round-robin.

        Returns one :class:`Reply` per request, in request order.  A
        request whose worker died before answering comes back with
        status ``"lost"`` — the caller re-runs those spans inline.
        Raises :class:`PoolBroken` when no worker is alive to begin
        with.
        """
        alive = [w for w in self.workers if w.alive and w.proc.is_alive()]
        if not alive:
            raise PoolBroken("process pool has no live workers")
        replies = [Reply("lost") for _ in requests]
        pending: dict[int, _Worker] = {}
        cursor = 0
        for req_id, (fragment, spans) in enumerate(requests):
            while alive:
                worker = alive[cursor % len(alive)]
                cursor += 1
                try:
                    worker.conn.send(
                        ("batch", req_id, fragment, spans, opts)
                    )
                except (BrokenPipeError, OSError):
                    self._mark_dead(worker)
                    alive = [w for w in self.workers if w.alive]
                    continue
                pending[req_id] = worker
                break
        while pending:
            conns = list({w.conn for w in pending.values()})
            for conn in _wait_readable(conns):
                worker = next(
                    w for w in self.workers if w.conn is conn
                )
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._mark_dead(worker)
                    for rid in [
                        r for r, w in pending.items() if w is worker
                    ]:
                        del pending[rid]  # stays "lost"
                    continue
                tag, req_id = msg[0], msg[1]
                pending.pop(req_id, None)
                if tag == "done":
                    replies[req_id] = Reply(
                        "done", wid=msg[2], result=msg[3], obs=msg[4]
                    )
                elif tag == "fault":
                    replies[req_id] = Reply(
                        "fault", wid=msg[2], message=msg[3],
                        site=msg[4], degraded=msg[5], obs=msg[6],
                    )
                else:
                    replies[req_id] = Reply(
                        "err", wid=msg[2], message=msg[3]
                    )
        return replies

    def close(self) -> None:
        for worker in self.workers:
            if worker.alive:
                try:
                    worker.conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
        for worker in self.workers:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
            worker.alive = False


# ---------------------------------------------------------------------------
# Pool registry
# ---------------------------------------------------------------------------

_PROCESS_POOLS: dict[tuple[int, int], ProcessPool] = {}
_warned_no_fork = False


def process_backend_available() -> bool:
    """Fork is what makes zero-copy column sharing possible."""
    return "fork" in multiprocessing.get_all_start_methods()


def warn_once_no_process_backend() -> None:
    global _warned_no_fork
    if not _warned_no_fork:
        _warned_no_fork = True
        warnings.warn(
            "worker_backend='process' needs the fork start method and "
            "a live worker; running morsel spans inline",
            RuntimeWarning,
            stacklevel=3,
        )


def get_process_pool(catalog: Any,
                     n_workers: int) -> ProcessPool | None:
    """The persistent pool for ``(catalog, n_workers)``, forked lazily.

    Returns None when the backend is unavailable or pointless
    (``n_workers <= 1``); a pool whose workers have all died is
    replaced by a fresh fork.  Pools are closed when their catalog is
    garbage-collected, and at interpreter exit.
    """
    if n_workers <= 1 or not process_backend_available():
        return None
    key = (id(catalog), n_workers)
    pool = _PROCESS_POOLS.get(key)
    if pool is not None and pool.alive_count():
        return pool
    if pool is not None:
        pool.close()
    pool = ProcessPool(catalog, n_workers)
    _PROCESS_POOLS[key] = pool
    try:
        weakref.finalize(catalog, _close_pool, key)
    except TypeError:  # catalog type without weakref support
        pass
    return pool


def _close_pool(key: tuple[int, int]) -> None:
    pool = _PROCESS_POOLS.pop(key, None)
    if pool is not None:
        pool.close()


def _close_all_pools() -> None:
    for key in list(_PROCESS_POOLS):
        _close_pool(key)


atexit.register(_close_all_pools)


def _reset_after_fork() -> None:
    # A forked child inherits registry entries whose pipe ends belong
    # to the parent; they must not be used (or closed) here.
    _PROCESS_POOLS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)
