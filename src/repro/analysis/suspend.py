"""Static suspend prediction (pass 2).

Classifies each real :class:`~repro.core.compiler.SuspendReason` as
NEVER / ALWAYS / DEPENDS **before execution**, from the compiled offload
decisions, catalog statistics (row counts, per-column distinct counts,
heap sizes) and the :class:`~repro.core.device.DeviceConfig` budgets:

- ``MID_PLAN_GROUPBY`` and ``STRING_HEAP`` are compile-time facts: the
  compiler's per-node reasons propagate into the simulator's final
  reason set unconditionally, and the runtime heap guard applies the
  same ``effective_heap_bytes`` rule the compiler already applied — so
  these are exactly ALWAYS (reason present in the compiled plan) or
  NEVER.
- ``GROUP_SPILL`` is bounded per hash-aggregate from group-count
  bounds (distinct-count statistics through a provenance walk).  Two
  proofs tighten the bracket to NEVER/ALWAYS: a *collision-freedom*
  proof that enumerates the candidate composite-key domain, zips it
  with the Column Zipper's own packing and hashes it into the 1024
  buckets; and an *exact-count* proof when the aggregate's input chain
  is rename-only over a base scan, making the spilled-group count
  ``max(0, NDV - 1024)`` deterministic (the Q17/Q18 assisted mode).
- ``DRAM_EXCEEDED`` sums worst-case build/pair allocations over every
  device-executed join (statically skipping joins the MonetDB
  join-index shortcut serves without DRAM) and compares against the
  scaled capacity; if even the simultaneous worst case fits, the
  verdict is NEVER.

DEPENDS verdicts carry a ``[lo, hi]`` bracket that must contain the
observed value (spilled groups / peak effective DRAM bytes) — the
cross-validation contract ``tests/test_analysis.py`` enforces on all
22 TPC-H queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from repro.analysis.diagnostics import Diagnostic, Severity, diag
from repro.analysis.typecheck import TypeChecker
from repro.core.compiler import (
    CompiledQuery,
    QueryCompiler,
    SuspendReason,
    subtree_reduces,
)
from repro.core.swissknife.groupby import (
    HASH_BUCKETS,
    MAX_GROUP_ID_BYTES,
    bucket_of,
    zip_group_columns,
)
from repro.engine.operators.joins import DIRECT_SPAN_FACTOR, direct_window
from repro.sqlir.expr import ColumnRef, Expr, Kind, ScalarSubquery
from repro.sqlir.plan import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    JoinKind,
    Limit,
    Plan,
    Project,
    Scan,
    Sort,
)

__all__ = [
    "Verdict",
    "SuspendPrediction",
    "SuspendPredictor",
    "subtree_reduces",
    "column_ndv",
]

# Give up on the collision-freedom proof beyond this candidate-domain
# size: enumeration cost grows with the cross product while the chance
# of 1024 buckets staying collision-free shrinks.
_PROOF_DOMAIN_LIMIT = 4096
_UNBOUNDED = 10**18

_REASON_CODES = {
    SuspendReason.MID_PLAN_GROUPBY: "AQ201",
    SuspendReason.STRING_HEAP: "AQ202",
    SuspendReason.GROUP_SPILL: "AQ203",
    SuspendReason.DRAM_EXCEEDED: "AQ204",
}


class Verdict(Enum):
    NEVER = "never"
    ALWAYS = "always"
    DEPENDS = "depends"


@dataclass
class SuspendPrediction:
    """Static verdict for one suspension reason over a whole query."""

    reason: SuspendReason
    verdict: Verdict
    lo: float = 0
    hi: float | None = 0  # None = no static bound
    unit: str = ""
    detail: str = ""

    def describe(self) -> str:
        text = self.verdict.value.upper()
        if self.verdict is not Verdict.NEVER and self.unit:
            hi = "?" if self.hi is None else f"{self.hi:g}"
            text += f" [{self.lo:g}, {hi}] {self.unit}"
        if self.detail:
            text += f" — {self.detail}"
        return text

    def to_json(self) -> dict:
        return {
            "reason": self.reason.value,
            "verdict": self.verdict.value,
            "lo": self.lo,
            "hi": self.hi,
            "unit": self.unit,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Catalog statistics (cached on the catalog instance)
# ---------------------------------------------------------------------------


def _stats_cache(catalog: Any) -> dict:
    cache = getattr(catalog, "_analysis_stats_cache", None)
    if cache is None:
        cache = {}
        catalog._analysis_stats_cache = cache
    return cache


def column_ndv(catalog: Any, table: str, column: str) -> int:
    """Number of distinct values in a base column (cached)."""
    col = catalog.table(table).column(column)
    if col.heap is not None:
        return col.heap.unique_count
    return len(_column_domain(catalog, table, column))


def _column_domain(catalog: Any, table: str,
                   column: str) -> np.ndarray:
    """Distinct raw values of a base column, as the zipper sees them
    (heap codes for strings)."""
    cache = _stats_cache(catalog)
    key = ("domain", table, column)
    if key not in cache:
        col = catalog.table(table).column(column)
        if col.heap is not None:
            cache[key] = np.arange(col.heap.unique_count, dtype=np.int64)
        else:
            cache[key] = distinct_values(col.values)
    return cache[key]


def distinct_values(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` as int64, by one pass where one suffices:
    the run boundaries of an ascending column, the occupied cells of a
    direct-address table (the route joins and grouping share) when the
    span fits ``DIRECT_SPAN_FACTOR`` cells per value, else a sort."""
    values = np.asarray(values, dtype=np.int64)
    if len(values) == 0:
        return np.unique(values)
    if bool(np.all(values[1:] >= values[:-1])):
        return values[np.concatenate(([True], values[1:] != values[:-1]))]
    window = direct_window(values, DIRECT_SPAN_FACTOR * len(values))
    if window is not None:
        kmin, _ = window
        return np.flatnonzero(np.bincount(values - kmin)) + kmin
    return np.unique(values)


# ---------------------------------------------------------------------------
# Cardinality bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Card:
    """Row-count bounds for a plan node's output."""

    lo: int
    hi: int
    exact: bool  # lo == hi == the true count


class SuspendPredictor:
    """Walks a compiled plan and predicts every real suspension."""

    def __init__(
        self, catalog: Any, config: Any, checker: TypeChecker | None = None
    ) -> None:
        self.catalog = catalog
        self.config = config
        self.checker = checker or TypeChecker(catalog, collect=False)
        self.compiler = QueryCompiler(
            catalog, scale_ratio=config.scale_ratio
        )
        self._cards: dict[Plan, Card] = {}
        self._provs: dict[Plan, dict[str, tuple[str, str]]] = {}

    # -- public entry ------------------------------------------------------

    def predict(
        self, plan: Plan, compiled: CompiledQuery | None = None
    ) -> tuple[dict[str, SuspendPrediction], list[Diagnostic]]:
        if compiled is None:
            compiled = self.compiler.compile(plan)
        units = compiled.flatten()
        roots: set[Plan] = set()
        executed_roots: list[Plan] = []
        for unit in units:
            roots.update(unit.offload_roots())
            executed_roots.extend(unit.device_roots)

        compiled_reasons = compiled.suspend_reasons()
        predictions = {
            SuspendReason.MID_PLAN_GROUPBY.name: self._compile_time(
                SuspendReason.MID_PLAN_GROUPBY, compiled_reasons, units
            ),
            SuspendReason.STRING_HEAP.name: self._compile_time(
                SuspendReason.STRING_HEAP, compiled_reasons, units
            ),
            SuspendReason.GROUP_SPILL.name: self._predict_spill(
                units, roots, executed_roots
            ),
            SuspendReason.DRAM_EXCEEDED.name: self._predict_dram(
                executed_roots
            ),
        }
        diagnostics = [
            d
            for p in predictions.values()
            if (d := self._prediction_diag(p)) is not None
        ]
        return predictions, diagnostics

    def _prediction_diag(self, p: SuspendPrediction) -> Diagnostic | None:
        if p.verdict is Verdict.NEVER:
            return None
        severity = (
            Severity.WARNING if p.verdict is Verdict.ALWAYS else Severity.INFO
        )
        return diag(
            _REASON_CODES[p.reason],
            severity,
            f"{p.reason.value}: {p.describe()}",
        )

    # -- compile-time reasons ---------------------------------------------

    def _compile_time(
        self,
        reason: SuspendReason,
        compiled_reasons: set[SuspendReason],
        units: list[CompiledQuery],
    ) -> SuspendPrediction:
        if reason not in compiled_reasons:
            return SuspendPrediction(reason, Verdict.NEVER)
        notes = []
        for unit in units:
            for node in unit.plan.walk():
                decision = unit.decisions.get(node)
                if decision is not None and decision.reason is reason:
                    notes.append(f"{node!r}: {decision.note}")
        return SuspendPrediction(
            reason,
            Verdict.ALWAYS,
            detail="; ".join(notes[:3]),
        )

    # -- group spill -------------------------------------------------------

    def _predict_spill(
        self,
        units: list[CompiledQuery],
        roots: set[Plan],
        executed_roots: list[Plan],
    ) -> SuspendPrediction:
        verdicts: list[tuple[Verdict, int, int, str]] = []

        seen: set[Plan] = set()
        for root in executed_roots:
            for node in root.walk():
                if (
                    isinstance(node, Aggregate)
                    and node.keys
                    and node not in seen
                ):
                    seen.add(node)
                    verdicts.append(self._device_agg_spill(node, root))
        for unit in units:
            for node in unit.plan.walk():
                decision = unit.decisions.get(node)
                if (
                    isinstance(node, Aggregate)
                    and decision is not None
                    and decision.device_assisted
                    and node.child in roots
                    and node not in seen
                ):
                    seen.add(node)
                    verdicts.append(self._assisted_agg_spill(node))

        reason = SuspendReason.GROUP_SPILL
        if not verdicts:
            return SuspendPrediction(
                reason, Verdict.NEVER, detail="no device-side hash aggregate"
            )
        lo = sum(v[1] for v in verdicts)
        hi = sum(v[2] for v in verdicts)
        details = "; ".join(v[3] for v in verdicts if v[3])
        if any(v[0] is Verdict.ALWAYS for v in verdicts):
            return SuspendPrediction(
                reason, Verdict.ALWAYS, lo, hi, "spilled groups", details
            )
        if all(v[0] is Verdict.NEVER for v in verdicts):
            return SuspendPrediction(reason, Verdict.NEVER, detail=details)
        return SuspendPrediction(
            reason, Verdict.DEPENDS, lo, hi, "spilled groups", details
        )

    def _device_agg_spill(
        self, agg: Aggregate, root: Plan
    ) -> tuple[Verdict, int, int, str]:
        """Spill bounds for a keyed aggregate the device hash-executes."""
        g_lo, g_hi, g_exact = self._group_bounds(agg)
        widths = self._key_widths(agg)
        label = f"device hash agg {agg!r}"
        if widths is None:
            return (Verdict.DEPENDS, 0, g_hi, f"{label}: unknown key kinds")
        id_bytes = sum(widths)
        if id_bytes > MAX_GROUP_ID_BYTES:
            # Wider than the zipper: every present group spills.  The
            # count only sticks when the root cannot roll back its
            # meters via a DRAM abort (no joins below the root).
            rollback = any(isinstance(n, Join) for n in root.walk())
            if g_exact and not rollback:
                return (
                    Verdict.ALWAYS if g_lo > 0 else Verdict.NEVER,
                    g_lo,
                    g_hi,
                    f"{label}: {id_bytes}B id > {MAX_GROUP_ID_BYTES}B, "
                    f"all {g_lo} groups spill",
                )
            return (
                Verdict.DEPENDS,
                0,
                g_hi,
                f"{label}: {id_bytes}B id > {MAX_GROUP_ID_BYTES}B, "
                "every present group spills",
            )
        if id_bytes <= 8 and self._collision_free(agg, widths):
            return (
                Verdict.NEVER,
                0,
                0,
                f"{label}: key domain hashes collision-free into "
                f"{HASH_BUCKETS} buckets",
            )
        if g_hi <= 1:
            return (Verdict.NEVER, 0, 0, f"{label}: at most one group")
        return (
            Verdict.DEPENDS,
            0,
            g_hi,
            f"{label}: up to {g_hi} groups may collide",
        )

    def _assisted_agg_spill(
        self, agg: Aggregate
    ) -> tuple[Verdict, int, int, str]:
        """Assisted (Q17/Q18-mode) spill: deterministic
        ``max(0, groups - HASH_BUCKETS)``."""
        g_lo, g_hi, g_exact = self._group_bounds(agg)
        label = f"assisted agg {agg!r}"
        if g_exact:
            spill = max(0, g_lo - HASH_BUCKETS)
            return (
                Verdict.ALWAYS if spill > 0 else Verdict.NEVER,
                spill,
                spill,
                f"{label}: exactly {g_lo} groups vs {HASH_BUCKETS} "
                "buckets",
            )
        if g_hi <= HASH_BUCKETS:
            return (
                Verdict.NEVER,
                0,
                0,
                f"{label}: at most {g_hi} groups fit {HASH_BUCKETS} "
                "buckets",
            )
        return (
            Verdict.DEPENDS,
            max(0, g_lo - HASH_BUCKETS),
            g_hi - HASH_BUCKETS,
            f"{label}: between {g_lo} and {g_hi} groups",
        )

    def _key_widths(self, agg: Aggregate) -> list[int] | None:
        schema = self.checker.schema_of(agg.child)
        if schema is None:
            return None
        widths = []
        for key in agg.keys:
            meta = schema.get(key)
            if meta is None:
                return None
            widths.append(4 if meta.kind is Kind.STR else 8)
        return widths

    def _collision_free(self, agg: Aggregate, widths: list[int]) -> bool:
        """Prove no two candidate composite keys share a hash bucket.

        Enumerates the cross product of each key's base-column domain (a
        superset of the groups any filtered run can produce), packs it
        with the runtime's own Column Zipper, and hashes with the
        runtime's own bucket function — if all candidate buckets are
        distinct, no data subset can ever collide.
        """
        domains = []
        total = 1
        for key in agg.keys:
            source = self.compiler.provenance(agg.child).get(key)
            if source is None:
                return False
            table, column = source
            domain = _column_domain(self.catalog, table, column)
            total *= max(1, len(domain))
            if total > _PROOF_DOMAIN_LIMIT:
                return False
            domains.append(domain)
        if total == 0:
            return True
        if sum(widths) > 8:
            # The wide-id surrogate numbering depends on which tuples
            # are present at runtime; not provable from the domain.
            return False
        grids = np.meshgrid(*domains, indexing="ij")
        columns = [g.reshape(-1).astype(np.int64) for g in grids]
        zipped, _ = zip_group_columns(columns, widths)
        buckets = bucket_of(zipped, HASH_BUCKETS)
        return len(np.unique(buckets)) == len(zipped)

    # -- group-count bounds ------------------------------------------------

    def _group_bounds(self, agg: Aggregate) -> tuple[int, int, bool]:
        """(lo, hi, exact) bounds on the aggregate's group count."""
        card = self._card(agg.child)
        if not agg.keys:
            return (1 if card.lo > 0 else 0, 1, card.lo > 0)
        if len(agg.keys) == 1:
            base = self._rename_only_base(agg.child, agg.keys[0])
            if base is not None:
                ndv = column_ndv(self.catalog, *base)
                return (ndv, ndv, True)
        hi = card.hi
        product = 1
        for key in agg.keys:
            key_hi = self._key_ndv_hi(agg.child, key)
            if key_hi is None:
                product = None
                break
            product = min(_UNBOUNDED, product * key_hi)
        if product is not None:
            hi = min(hi, product)
        return (1 if card.lo > 0 else 0, hi, False)

    def _key_ndv_hi(self, node: Plan, name: str) -> int | None:
        """Upper bound on the key column's distinct count, following
        computed expressions (NDV(f(x, y)) <= NDV(x) * NDV(y))."""
        base = self.compiler.provenance(node).get(name)
        if base is not None:
            return column_ndv(self.catalog, *base)
        # A computed Project output: bound by its referenced columns.
        expr_source = self._key_expr(node, name)
        if expr_source is None:
            return None
        expr, below = expr_source
        return self._expr_ndv_hi(expr, below)

    def _key_expr(self, node: Plan, name: str) -> Any:
        if isinstance(node, (Filter, Sort, Limit, Distinct)):
            return self._key_expr(node.child, name)
        if isinstance(node, Project):
            for out_name, expr in node.outputs:
                if out_name == name:
                    if isinstance(expr, ColumnRef):
                        return self._key_expr(node.child, expr.name)
                    return (expr, node.child)
            return None
        if isinstance(node, Join):
            found = self._key_expr(node.left, name)
            if found is None and node.kind in (
                JoinKind.INNER,
                JoinKind.LEFT_OUTER,
            ):
                found = self._key_expr(node.right, name)
            return found
        return None

    def _expr_ndv_hi(self, expr: Expr, below: Plan) -> int | None:
        if isinstance(expr, ScalarSubquery):
            return 1  # broadcast constant
        refs = expr.column_refs()
        if not refs:
            return 1
        product = 1
        for ref in refs:
            base = self.compiler.provenance(below).get(ref)
            if base is None:
                return None
            product = min(
                _UNBOUNDED, product * column_ndv(self.catalog, *base)
            )
        return product

    def _rename_only_base(
        self, node: Plan, name: str
    ) -> tuple[str, str] | None:
        """Base column for ``name`` when the chain below preserves the
        base column's row multiset exactly (rename-only Projects over a
        scan) — the condition under which NDV is *exact*."""
        if isinstance(node, Project):
            for out_name, expr in node.outputs:
                if out_name == name and isinstance(expr, ColumnRef):
                    return self._rename_only_base(node.child, expr.name)
            return None
        if isinstance(node, Scan):
            table = self._table(node.table)
            if table is not None and table.has_column(name):
                if node.columns is None or name in node.columns:
                    return (node.table, name)
        return None

    # -- cardinalities -----------------------------------------------------

    def _table(self, name: str) -> Any:
        try:
            return self.catalog.table(name)
        except KeyError:
            return None

    def _card(self, node: Plan) -> Card:
        cached = self._cards.get(node)
        if cached is not None:
            return cached
        card = self._card_of(node)
        self._cards[node] = card
        return card

    def _card_of(self, node: Plan) -> Card:
        if isinstance(node, Scan):
            table = self._table(node.table)
            if table is None:
                return Card(0, _UNBOUNDED, False)
            return Card(table.nrows, table.nrows, True)
        if isinstance(node, Filter):
            return Card(0, self._card(node.child).hi, False)
        if isinstance(node, (Project, Sort)):
            return self._card(node.child)
        if isinstance(node, Limit):
            child = self._card(node.child)
            count = max(0, node.count)
            return Card(
                min(child.lo, count), min(child.hi, count), child.exact
            )
        if isinstance(node, Distinct):
            child = self._card(node.child)
            return Card(1 if child.lo > 0 else 0, child.hi, False)
        if isinstance(node, Aggregate):
            lo, hi, exact = self._group_bounds(node)
            if node.having is not None:
                return Card(0, hi, False)
            return Card(lo, hi, exact)
        if isinstance(node, Join):
            return self._card_join(node)
        return Card(0, _UNBOUNDED, False)

    def _card_join(self, node: Join) -> Card:
        left = self._card(node.left)
        right = self._card(node.right)
        if node.kind in (JoinKind.SEMI, JoinKind.ANTI):
            return Card(0, left.hi, False)
        pairs_hi = self._pairs_hi(node, left, right)
        if node.kind is JoinKind.LEFT_OUTER:
            return Card(
                left.lo, min(_UNBOUNDED, pairs_hi + left.hi), False
            )
        if node.residual is None and self._fk_guaranteed(node):
            # Referential integrity: every left row matches exactly one
            # row of the whole referenced table.
            return Card(left.lo, left.hi, left.exact)
        return Card(0, pairs_hi, False)

    def _pairs_hi(self, node: Join, left: Card, right: Card) -> int:
        if self._key_is_unique(node.right, node.right_key):
            return left.hi
        if self._key_is_unique(node.left, node.left_key):
            return right.hi
        return min(_UNBOUNDED, left.hi * right.hi)

    def _key_is_unique(self, node: Plan, key: str) -> bool:
        """Each value of ``key`` occurs at most once in ``node``'s
        output (sound; incomplete)."""
        if isinstance(node, (Filter, Sort, Limit)):
            return self._key_is_unique(node.child, key)
        if isinstance(node, Distinct):
            schema = self.checker.schema_of(node)
            return (
                schema is not None
                and len(schema) == 1
                and key in schema
            )
        if isinstance(node, Project):
            for name, expr in node.outputs:
                if name == key:
                    if isinstance(expr, ColumnRef):
                        return self._key_is_unique(node.child, expr.name)
                    return False
            return False
        if isinstance(node, Aggregate):
            return node.keys == (key,)
        if isinstance(node, Scan):
            return self.catalog.primary_key(node.table) == key
        if isinstance(node, Join) and node.kind in (
            JoinKind.SEMI,
            JoinKind.ANTI,
        ):
            return self._key_is_unique(node.left, key)
        return False

    def _fk_guaranteed(self, node: Join) -> bool:
        """Left key is a foreign key and the right side is the whole,
        unfiltered referenced table."""
        source = self.compiler.provenance(node.left).get(node.left_key)
        if source is None:
            return False
        fk = self.catalog.foreign_key_for(*source)
        if fk is None:
            return False
        whole = self._whole_scan(node.right, allow_filter=False)
        if whole != fk.ref_table:
            return False
        right_base = self.compiler.provenance(node.right).get(node.right_key)
        return right_base == (fk.ref_table, fk.ref_column)

    def _whole_scan(self, node: Plan, allow_filter: bool) -> str | None:
        """Table name when ``node`` is a (rename-only) scan chain of one
        base table; ``allow_filter`` admits filters (the rows are then a
        *subset* rather than the whole table)."""
        if isinstance(node, Scan):
            return node.table
        if isinstance(node, Project):
            if all(isinstance(e, ColumnRef) for _, e in node.outputs):
                return self._whole_scan(node.child, allow_filter)
            return None
        if allow_filter and isinstance(node, Filter):
            return self._whole_scan(node.child, allow_filter)
        return None

    # -- DRAM --------------------------------------------------------------

    def _predict_dram(
        self, executed_roots: list[Plan]
    ) -> SuspendPrediction:
        reason = SuspendReason.DRAM_EXCEEDED
        ratio = self.config.scale_ratio
        capacity = self.config.dram_bytes
        total_hi = 0
        always_detail = None
        details: list[str] = []
        n_joins = 0
        seen: set[Plan] = set()
        for root in executed_roots:
            for node in root.walk():
                if not isinstance(node, Join) or node in seen:
                    continue
                seen.add(node)
                if self._join_shortcut(node, certain=True):
                    details.append(
                        f"{node!r}: join-index shortcut, no DRAM"
                    )
                    continue
                n_joins += 1
                left = self._card(node.left)
                right = self._card(node.right)
                per_row = (
                    8
                    + (8 if node.kind is JoinKind.INNER else 0)
                    + (8 if node.residual is not None else 0)
                )
                build_hi = max(left.hi, right.hi) * per_row
                pairs_hi = 0
                if node.kind is JoinKind.INNER:
                    pairs_hi = self._pairs_hi(node, left, right) * 16
                total_hi = min(
                    _UNBOUNDED, total_hi + build_hi + pairs_hi
                )
                details.append(
                    f"{node!r}: build<= {build_hi}B, pairs<= {pairs_hi}B"
                )
                if (
                    left.exact
                    and right.exact
                    and not self._join_shortcut(node, certain=False)
                ):
                    need = min(left.hi, right.hi) * per_row * ratio
                    if need > capacity:
                        always_detail = (
                            f"{node!r}: smaller build side needs "
                            f"{need:.3g} effective bytes > capacity "
                            f"{capacity}"
                        )
        if always_detail is not None:
            return SuspendPrediction(
                reason,
                Verdict.ALWAYS,
                0,
                None,
                "effective bytes",
                always_detail,
            )
        if n_joins == 0:
            return SuspendPrediction(
                reason,
                Verdict.NEVER,
                0,
                0,
                "effective bytes",
                "; ".join(details) or "no device-executed join",
            )
        hi_effective = total_hi * ratio
        if hi_effective <= capacity:
            return SuspendPrediction(
                reason,
                Verdict.NEVER,
                0,
                hi_effective,
                "effective bytes",
                "worst-case allocations all fit simultaneously",
            )
        return SuspendPrediction(
            reason,
            Verdict.DEPENDS,
            0,
            hi_effective,
            "effective bytes",
            "; ".join(details[:4]),
        )

    def _join_shortcut(self, node: Join, certain: bool) -> bool:
        """Static mirror of the simulator's ``_try_join_index``.

        ``certain=True`` demands conditions that guarantee the shortcut
        fires (unfiltered referenced side); ``certain=False`` answers
        whether it *could* fire (used to withhold ALWAYS claims)."""
        if node.kind is not JoinKind.INNER or node.residual is not None:
            return False
        source = self._device_origin(node.left).get(node.left_key)
        if source is None:
            return False
        fk = self.catalog.foreign_key_for(*source)
        if fk is None:
            return False
        whole = self._whole_scan(node.right, allow_filter=not certain)
        if whole != fk.ref_table:
            return False
        right_origin = self._device_origin(node.right)
        if right_origin.get(node.right_key) != (
            fk.ref_table,
            fk.ref_column,
        ):
            return False
        # Every right output column must originate in the referenced
        # table (true by construction for a rename-only scan chain).
        return all(
            origin[0] == fk.ref_table for origin in right_origin.values()
        )

    def _device_origin(self, node: Plan) -> dict[str, tuple[str, str]]:
        """Mirror of the device executor's origin propagation."""
        cached = self._provs.get(node)
        if cached is not None:
            return cached
        origin: dict[str, tuple[str, str]]
        if isinstance(node, Scan):
            table = self._table(node.table)
            if table is None:
                origin = {}
            else:
                names = (
                    node.columns
                    if node.columns is not None
                    else tuple(table.column_names)
                )
                origin = {
                    n: (node.table, n)
                    for n in names
                    if table.has_column(n)
                }
        elif isinstance(node, (Filter, Sort, Limit)):
            origin = self._device_origin(node.child)
        elif isinstance(node, Project):
            child = self._device_origin(node.child)
            origin = {
                name: child[expr.name]
                for name, expr in node.outputs
                if isinstance(expr, ColumnRef) and expr.name in child
            }
        elif isinstance(node, Join):
            origin = dict(self._device_origin(node.left))
            if node.kind not in (JoinKind.SEMI, JoinKind.ANTI):
                origin.update(self._device_origin(node.right))
        else:  # Aggregate / Distinct outputs are device-materialised
            origin = {}
        self._provs[node] = origin
        return origin
