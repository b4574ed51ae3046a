"""The four workloads: what each one runs, and through which path.

Every workload is a closed loop with one client: the next query starts
when the previous one returned.  A workload knows its data size, how to
build a *runner* (the set-up a user pays once: plans, analysis,
executor construction) and which other execution path produces its
reference results.  The program under test is only ever called through
its public functions, and only ever sees the generated catalog and the
rendered SQL text — never ``--seed`` itself.
"""

from __future__ import annotations

import datetime
import random
import re
from dataclasses import dataclass
from pathlib import Path

from repro import tpch
from repro.analysis import analyze_plan
from repro.core import AquomanSimulator, DeviceConfig
from repro.engine import Engine, MorselConfig
from repro.engine.morsel import TUNED_MORSEL_ROWS
from repro.obs import NULL_TRACER
from repro.perf.trace import QueryTrace
from repro.sqlir import parse_sql, plan_sql

BENCH_DIR = Path(__file__).resolve().parent
SQL_FILE = BENCH_DIR / "sql_adhoc.sql"
SIMULATED_SF = 1000.0


@dataclass
class Outcome:
    """What one query execution produced."""

    table: object                  # repro.storage.table.Table
    trace: QueryTrace
    meters: object | None = None   # DeviceMeters on the device path


# -- runners ---------------------------------------------------------------


def _device_config(catalog) -> DeviceConfig:
    return DeviceConfig(scale_ratio=SIMULATED_SF / catalog.scale_factor)


class TpchRunner:
    """The 22 TPC-H plans on the host engine or the device simulator.

    ``path`` is ``"host"`` (monolithic operators), ``"stream"`` (the
    morsel executor, one worker, inline) or ``"device"``.
    """

    def __init__(self, catalog, path: str, tracer=NULL_TRACER,
                 workers: int = 1):
        self.catalog = catalog
        self.tracer = tracer
        with tracer.span("tpch.plan_build"):
            self.plans = {
                f"q{n:02d}": tpch.query(n) for n in tpch.ALL_QUERIES
            }
        config = _device_config(catalog)
        with tracer.span("analysis.full"):
            for plan in self.plans.values():
                analyze_plan(plan, catalog, device=config)
        self.engine = None
        self.simulator = None
        if path == "device":
            self.simulator = AquomanSimulator(
                catalog, config, tracer=tracer
            )
            return
        morsels = None
        if path == "stream":
            morsels = MorselConfig(
                parallel=True,
                morsel_rows=TUNED_MORSEL_ROWS,
                n_workers=workers,
                worker_backend="process" if workers > 1 else "serial",
            )
        self.engine = Engine(catalog, morsels=morsels, tracer=tracer)
        if morsels is not None:
            with tracer.span("storage.layout"):
                self.engine.flash_layout()

    @property
    def names(self) -> list[str]:
        return list(self.plans)

    def run(self, name: str) -> Outcome:
        plan = self.plans[name]
        if self.simulator is not None:
            with self.tracer.span("core.simulate"):
                result = self.simulator.run(plan, name)
            return Outcome(result.table, result.trace,
                           result.device.meters)
        with self.tracer.span("engine.execute"):
            self.engine.trace = QueryTrace(
                query=name, scale_factor=self.catalog.scale_factor
            )
            relation = self.engine.execute_relation(plan)
        with self.tracer.span("engine.to_table"):
            table = relation.to_table(name)
        return Outcome(table, self.engine.trace)

    def aside(self, name: str) -> None:
        """Nothing to measure beside the query on this path."""


class AdhocRunner:
    """SQL text → plan → strict-analysed engine, anew per execution.

    With ``device=True`` the planned statement goes through the device
    simulator instead; that is the reference path, never the timed one.
    """

    def __init__(self, catalog, seed: int, tracer=NULL_TRACER,
                 device: bool = False):
        self.catalog = catalog
        self.tracer = tracer
        self.texts = render_sql(SQL_FILE.read_text(), seed)
        self.device = device

    @property
    def names(self) -> list[str]:
        return list(self.texts)

    def run(self, name: str) -> Outcome:
        text = self.texts[name]
        with self.tracer.span("sqlir.plan"):
            plan = plan_sql(text, self.catalog)
        if self.device:
            result = AquomanSimulator(
                self.catalog, _device_config(self.catalog)
            ).run(plan, name)
            return Outcome(result.table, result.trace,
                           result.device.meters)
        with self.tracer.span("engine.execute"):
            engine = Engine(
                self.catalog,
                QueryTrace(
                    query=name, scale_factor=self.catalog.scale_factor
                ),
                analyze="strict",
                tracer=self.tracer,
            )
            relation = engine.execute_relation(plan)
        with self.tracer.span("engine.to_table"):
            table = relation.to_table(name)
        return Outcome(table, engine.trace)

    def aside(self, name: str) -> None:
        """Time ``parse_sql`` alone: the share of ``sqlir.plan`` that
        is parsing.  Called outside the timed interval."""
        with self.tracer.span("sqlir.parse"):
            parse_sql(self.texts[name])


# -- SQL rendering ---------------------------------------------------------

_PLACEHOLDER = re.compile(r"\{(int|dec|date|pick):([^{}]*)\}")


def _render_placeholder(rng: random.Random, kind: str, spec: str) -> str:
    if kind == "pick":
        return rng.choice(spec.split("|"))
    lo, hi = spec.split(":")
    if kind == "int":
        return str(rng.randint(int(lo), int(hi)))
    if kind == "dec":
        cents = rng.randint(round(float(lo) * 100), round(float(hi) * 100))
        sign = "-" if cents < 0 else ""
        return f"{sign}{abs(cents) // 100}.{abs(cents) % 100:02d}"
    first = datetime.date.fromisoformat(lo)
    span = (datetime.date.fromisoformat(hi) - first).days
    return (first + datetime.timedelta(rng.randint(0, span))).isoformat()


def render_sql(template: str, seed: int) -> dict[str, str]:
    """Split the statement file and fill its placeholders from ``seed``.

    Returns ``{name: sql}`` in file order.  The same seed renders the
    same texts; literals are drawn in file order from one generator.
    """
    rng = random.Random(seed)
    texts: dict[str, str] = {}
    for block in re.split(r"^-- name:", template, flags=re.M)[1:]:
        name, _, body = block.partition("\n")
        sql = body.split(";")[0]
        texts[name.strip()] = _PLACEHOLDER.sub(
            lambda m: _render_placeholder(rng, m.group(1), m.group(2)),
            sql,
        ).strip()
    return texts


# -- the workloads ---------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale_factor: float
    mmap: bool             # how every round re-loads the catalog
    path: str              # "host" | "stream" | "device" | "adhoc"
    reference_path: str    # the other path that checks this one
    system: str            # perf.report.SYSTEM_FACTORIES key for sim_*
    passes: int            # warm passes per round
    calib_every: int       # kernel run after every n-th query
    interpreter_share: float   # see calib.slowdown
    digests: bool          # committed digests exist at DEFAULT_SEED

    def runner(self, catalog, seed: int, tracer=NULL_TRACER,
               workers: int = 1):
        if self.path == "adhoc":
            return AdhocRunner(catalog, seed, tracer)
        return TpchRunner(catalog, self.path, tracer, workers)

    def reference_runner(self, catalog, seed: int):
        if self.path == "adhoc":
            return AdhocRunner(catalog, seed, device=True)
        return TpchRunner(catalog, self.reference_path)


DEFAULT_SEED = 1

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tpch_host",
            why="22 TPC-H plans on the monolithic host operators over "
                "in-memory columns; morsel, procpool, core and the SQL "
                "parser do no work",
            scale_factor=0.05, mmap=False, path="host",
            reference_path="stream", system="S",
            passes=3, calib_every=1, interpreter_share=0.25,
            digests=True,
        ),
        Workload(
            name="tpch_stream",
            why="same plans and data through the span-at-a-time morsel "
                "path over mmap columns with page skip and partial "
                "merge; diverges from tpch_host when a change favours "
                "one path",
            scale_factor=0.05, mmap=True, path="stream",
            reference_path="host", system="S",
            passes=2, calib_every=1, interpreter_share=0.25,
            digests=False,
        ),
        Workload(
            name="tpch_device",
            why="same plans through the AQUOMAN simulator: compiler, "
                "Row Selector, PE-array transformer and Swissknife do "
                "most of the work, the host engine only the remainder",
            scale_factor=0.02, mmap=False, path="device",
            reference_path="host", system="S-AQUOMAN",
            passes=2, calib_every=1, interpreter_share=0.45,
            digests=False,
        ),
        Workload(
            name="sql_adhoc",
            why="24 seeded SQL texts on a cache-resident catalog, "
                "planned and strict-analysed per execution, so fixed "
                "per-query cost dominates and per-row work is noise",
            scale_factor=0.002, mmap=False, path="adhoc",
            reference_path="device", system="S",
            passes=25, calib_every=12, interpreter_share=0.7,
            digests=True,
        ),
    )
}
