"""Perf-regression baselines: run records, medians, noisy diffs.

The benchmark suite and ``perf/tpch_eval.py`` append one
:class:`RunRecord` per measurement to a JSONL store; CI compares the
current run against the committed ``benchmarks/baselines.jsonl`` with
``python -m repro perf diff``.  Three design rules keep the comparison
honest:

1. **Median-of-N.**  A record holds one measurement; the comparator
   groups by ``(bench, metric)`` and compares *medians*, so a store
   with repeated runs self-filters outliers and re-running a bench
   only sharpens the estimate.
2. **Per-metric noise thresholds.**  Wall-clock metrics (``wall.*``)
   jitter across CI machines — they get a wide default band (25%);
   model-derived metrics (``model.*``) are deterministic functions of
   the trace and get a tight one (2%).  Callers override per metric
   with ``thresholds={"wall.speedup_4_vs_1": 0.15}``.
3. **Direction-aware.**  ``speedup`` / ``rows_per_sec`` / ``saving`` /
   ``ratio`` / ``rate`` metrics regress *downward*; times and bytes
   regress upward.  A change past the threshold in the good direction
   reports ``improved`` (CI-green but visible, so wins get re-baselined
   rather than silently absorbed as slack).

Layering: stdlib only — importable from benchmarks, CI glue and the
CLI without touching the engine.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Iterable, Iterator

__all__ = [
    "DiffEntry",
    "DiffReport",
    "RunRecord",
    "append_records",
    "compare",
    "load_records",
    "median_by_metric",
    "read_jsonl",
]

# Relative noise band by metric-name prefix, checked longest-first.
DEFAULT_THRESHOLDS = {
    "wall.": 0.25,   # machine-dependent wall clock
    "model.": 0.02,  # deterministic replay of the trace model
}
FALLBACK_THRESHOLD = 0.10

# Substrings marking metrics where bigger is better.
_HIGHER_IS_BETTER = (
    "speedup", "rows_per_sec", "saving", "ratio", "rate", "hit",
)


@dataclass
class RunRecord:
    """One measurement of one benchmark."""

    bench: str                      # e.g. "morsel_scaling"
    metrics: dict[str, float]       # metric name -> value
    meta: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "bench": self.bench,
            "metrics": dict(self.metrics),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "RunRecord":
        return cls(
            bench=doc["bench"],
            metrics={k: float(v) for k, v in doc["metrics"].items()},
            meta=dict(doc.get("meta", {})),
        )


def append_records(path: str, records: Iterable[RunRecord]) -> int:
    """Append records to a JSONL store, creating it if missing."""
    n = 0
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json(), sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path: str, what: str) -> Iterator[tuple[int, Any]]:
    """``(line number, parsed object)`` per non-blank line of a JSONL
    file; a line that is not JSON raises ``ValueError`` naming it."""
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{ln}: bad {what} ({exc})"
                ) from exc
            yield ln, doc


def load_records(path: str) -> list[RunRecord]:
    records: list[RunRecord] = []
    for ln, doc in read_jsonl(path, "run record"):
        try:
            records.append(RunRecord.from_json(doc))
        except KeyError as exc:
            raise ValueError(
                f"{path}:{ln}: bad run record ({exc})"
            ) from exc
    return records


def median_by_metric(
    records: Iterable[RunRecord],
) -> dict[tuple[str, str], tuple[float, int]]:
    """``(bench, metric) -> (median value, n samples)``."""
    samples: dict[tuple[str, str], list[float]] = {}
    for record in records:
        for metric, value in record.metrics.items():
            samples.setdefault((record.bench, metric), []).append(value)
    return {
        key: (median(vals), len(vals))
        for key, vals in samples.items()
    }


def _threshold_for(
    metric: str, overrides: dict[str, float] | None
) -> float:
    # Overrides win, longest prefix first; an exact name is just the
    # longest possible prefix.
    if overrides:
        for prefix in sorted(overrides, key=len, reverse=True):
            if metric.startswith(prefix):
                return overrides[prefix]
    for prefix in sorted(DEFAULT_THRESHOLDS, key=len, reverse=True):
        if metric.startswith(prefix):
            return DEFAULT_THRESHOLDS[prefix]
    return FALLBACK_THRESHOLD


def _higher_is_better(metric: str) -> bool:
    return any(tag in metric for tag in _HIGHER_IS_BETTER)


@dataclass(frozen=True)
class DiffEntry:
    bench: str
    metric: str
    baseline: float | None      # median, None when missing
    current: float | None
    n_baseline: int
    n_current: int
    rel_change: float | None    # (current - baseline) / |baseline|
    threshold: float
    status: str                 # ok | regressed | improved | missing | new

    def describe(self) -> str:
        tag = f"{self.bench}/{self.metric}"
        if self.status == "new":
            return f"NEW       {tag} = {self.current:g} (no baseline)"
        if self.status == "missing":
            return (
                f"MISSING   {tag} baseline={self.baseline:g} "
                f"(not measured in current run)"
            )
        arrow = f"{self.baseline:g} -> {self.current:g}"
        pct = f"{self.rel_change:+.1%}"
        band = f"±{self.threshold:.0%}"
        label = {"ok": "ok", "regressed": "REGRESSED",
                 "improved": "improved"}[self.status]
        return f"{label:<9} {tag} {arrow} ({pct}, band {band})"


@dataclass
class DiffReport:
    entries: list[DiffEntry]

    @property
    def regressions(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.status == "regressed"]

    @property
    def missing(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.status == "missing"]

    def failed(self, strict: bool = False) -> bool:
        if self.regressions:
            return True
        return strict and bool(self.missing)

    def format(self, verbose: bool = False) -> str:
        lines: list[str] = []
        for entry in self.entries:
            if verbose or entry.status != "ok":
                lines.append(entry.describe())
        n_ok = sum(1 for e in self.entries if e.status == "ok")
        lines.append(
            f"{len(self.entries)} metrics compared: {n_ok} ok, "
            f"{len(self.regressions)} regressed, "
            f"{sum(1 for e in self.entries if e.status == 'improved')} "
            f"improved, {len(self.missing)} missing, "
            f"{sum(1 for e in self.entries if e.status == 'new')} new"
        )
        return "\n".join(lines)


def compare(
    baseline: Iterable[RunRecord],
    current: Iterable[RunRecord],
    thresholds: dict[str, float] | None = None,
    abs_floor: float = 0.0,
) -> DiffReport:
    """Median-of-N comparison of two run-record sets.

    A change is noise (``ok``) while ``|Δ| ≤ max(threshold·|baseline|,
    abs_floor)``: the relative band scales with the metric, the
    absolute floor (in the metric's own unit) keeps near-zero baselines
    from turning jitter into a regression.
    """
    base = median_by_metric(baseline)
    cur = median_by_metric(current)
    entries: list[DiffEntry] = []
    for key in sorted(set(base) | set(cur)):
        bench, metric = key
        threshold = _threshold_for(metric, thresholds)
        b = base.get(key)
        c = cur.get(key)
        if b is None:
            entries.append(DiffEntry(
                bench, metric, None, c[0], 0, c[1],
                None, threshold, "new",
            ))
            continue
        if c is None:
            entries.append(DiffEntry(
                bench, metric, b[0], None, b[1], 0,
                None, threshold, "missing",
            ))
            continue
        b_val, c_val = b[0], c[0]
        if b_val == 0:
            rel = 0.0 if c_val == 0 else float("inf")
        else:
            rel = (c_val - b_val) / abs(b_val)
        if abs(rel) <= threshold or abs(c_val - b_val) <= abs_floor:
            status = "ok"
        elif (rel < 0) == _higher_is_better(metric):
            status = "regressed"
        else:
            status = "improved"
        entries.append(DiffEntry(
            bench, metric, b_val, c_val, b[1], c[1],
            rel, threshold, status,
        ))
    return DiffReport(entries)
