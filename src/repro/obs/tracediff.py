"""Trace-diff: attribute the delta between two query-log runs.

``python -m repro tracediff <run-a.jsonl> <run-b.jsonl>`` aligns two
runs' wide events by **plan fingerprint** (the structural digest from
:func:`repro.obs.context.plan_fingerprint` — stable across processes,
backends and machines), then explains where the time went:

1. Each wide event becomes one :class:`~repro.obs.baseline.RunRecord`
   (``bench`` = fingerprint; metrics = ``wall_ms``, ``path_ms``, one
   per critical-path bucket, one per ``top_spans`` prefix), and
   :func:`repro.obs.baseline.compare` — the comparator behind ``repro
   perf diff`` — groups, takes medians, aligns the two sides and
   applies the noise band.  This module only adapts events in and
   formats entries out.
2. The per-bucket deltas *sum to the critical-path delta by
   construction* (buckets partition the path, the path spans the root
   window), so "process is slower than serial" decomposes into "+3.1ms
   host, +0.8ms flash_io" instead of a bare total.
3. Span-prefix attribution (``morsel.*``, ``engine.*``, ``device.*``)
   from each event's ``top_spans`` names the code that moved.

Alignment rules: events missing on either side are reported, never
silently dropped; multiple events with one fingerprint (several seeds,
several backends in one log) aggregate by median; an event without a
``critpath`` section still contributes its wall time but attributes
nothing.

Layering: reads JSONL only — no engine imports — so it can diff runs
from other checkouts and CI artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Iterable

from repro.obs import baseline
from repro.obs.critpath import BUCKETS

__all__ = [
    "TraceDiff",
    "DiffEntry",
    "diff_runs",
    "load_wide_events",
]

# A delta smaller than both bands is noise, not a regression.
DEFAULT_REL_BAND = 0.10     # 10% of the baseline wall time
DEFAULT_ABS_BAND_MS = 0.5   # absolute floor for tiny queries

# Metric-name namespaces of the per-event run record.
_BUCKET = "bucket."
_PREFIX = "prefix."


def load_wide_events(path: str) -> list[dict[str, Any]]:
    """Parse a query-log JSONL file (ignoring blank lines)."""
    return [doc for _ln, doc in baseline.read_jsonl(path, "wide event")]


def _span_prefix(name: str) -> str:
    return name.split(".", 1)[0] + ".*" if "." in name else name


def _to_record(event: dict[str, Any]) -> baseline.RunRecord:
    """One wide event as a run record keyed by its fingerprint."""
    metrics = {"wall_ms": float(event["wall_ms"])}
    critpath = event.get("critpath")
    if critpath:
        metrics["path_ms"] = float(critpath["path_ms"])
        # Zero-filled: a bucket the path never entered spent 0 ms, so
        # medians over repeats count it rather than skip the event.
        for bucket in BUCKETS:
            metrics[_BUCKET + bucket] = float(
                critpath["buckets"].get(bucket, 0.0)
            )
        for name, _bucket, ms in critpath.get("top_spans", ()):
            key = _PREFIX + _span_prefix(name)
            metrics[key] = metrics.get(key, 0.0) + float(ms)
    return baseline.RunRecord(
        event["fingerprint"], metrics, {"query": event.get("query", "")}
    )


@dataclass
class DiffEntry:
    """One aligned fingerprint's attribution."""

    fingerprint: str
    query: str
    wall_a_ms: float
    wall_b_ms: float
    bucket_delta_ms: dict[str, float]
    prefix_delta_ms: dict[str, float]
    path_delta_ms: float | None
    regression: bool

    @property
    def wall_delta_ms(self) -> float:
        return self.wall_b_ms - self.wall_a_ms

    @property
    def attributed_ms(self) -> float:
        return sum(self.bucket_delta_ms.values())


@dataclass
class TraceDiff:
    """The full diff of run B against run A."""

    entries: list[DiffEntry]
    only_a: list[str] = field(default_factory=list)  # fingerprints
    only_b: list[str] = field(default_factory=list)
    rel_band: float = DEFAULT_REL_BAND
    abs_band_ms: float = DEFAULT_ABS_BAND_MS

    @property
    def total_wall_delta_ms(self) -> float:
        return sum(e.wall_delta_ms for e in self.entries)

    @property
    def total_attributed_ms(self) -> float:
        return sum(e.attributed_ms for e in self.entries)

    @property
    def regressions(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.regression]

    def to_dict(self) -> dict[str, Any]:
        return {
            "entries": [
                {
                    "fingerprint": e.fingerprint,
                    "query": e.query,
                    "wall_a_ms": round(e.wall_a_ms, 6),
                    "wall_b_ms": round(e.wall_b_ms, 6),
                    "wall_delta_ms": round(e.wall_delta_ms, 6),
                    "path_delta_ms": (
                        round(e.path_delta_ms, 6)
                        if e.path_delta_ms is not None else None
                    ),
                    "attributed_ms": round(e.attributed_ms, 6),
                    "buckets": {
                        k: round(v, 6)
                        for k, v in e.bucket_delta_ms.items()
                    },
                    "prefixes": {
                        k: round(v, 6)
                        for k, v in e.prefix_delta_ms.items()
                    },
                    "regression": e.regression,
                }
                for e in self.entries
            ],
            "only_a": self.only_a,
            "only_b": self.only_b,
            "total_wall_delta_ms": round(self.total_wall_delta_ms, 6),
            "total_attributed_ms": round(self.total_attributed_ms, 6),
            "n_regressions": len(self.regressions),
        }

    def format(self, top: int = 10) -> str:
        ranked = sorted(
            self.entries, key=lambda e: -abs(e.wall_delta_ms)
        )
        lines = [
            f"tracediff: {len(self.entries)} aligned fingerprints, "
            f"{len(self.regressions)} regressions "
            f"(bands: {self.rel_band:.0%} rel, "
            f"{self.abs_band_ms}ms abs)",
            f"  total wall delta {self.total_wall_delta_ms:+.2f}ms, "
            f"attributed {self.total_attributed_ms:+.2f}ms "
            "(critical-path buckets)",
        ]
        for entry in ranked[:top]:
            flag = " REGRESSION" if entry.regression else ""
            lines.append(
                f"  {entry.query or entry.fingerprint:<8} "
                f"{entry.wall_a_ms:9.2f}ms -> {entry.wall_b_ms:9.2f}ms "
                f"({entry.wall_delta_ms:+8.2f}ms){flag}"
            )
            moved = sorted(
                entry.bucket_delta_ms.items(),
                key=lambda kv: -abs(kv[1]),
            )
            for bucket, delta in moved[:3]:
                if abs(delta) >= 0.001:
                    lines.append(f"      {bucket:<14} {delta:+9.2f}ms")
            hot = sorted(
                entry.prefix_delta_ms.items(),
                key=lambda kv: -abs(kv[1]),
            )
            for prefix, delta in hot[:2]:
                if abs(delta) >= 0.001:
                    lines.append(f"      {prefix:<14} {delta:+9.2f}ms")
        if self.only_a:
            lines.append(
                f"  only in A: {len(self.only_a)} fingerprints"
            )
        if self.only_b:
            lines.append(
                f"  only in B: {len(self.only_b)} fingerprints"
            )
        return "\n".join(lines)


def diff_runs(
    events_a: Iterable[dict[str, Any]],
    events_b: Iterable[dict[str, Any]],
    rel_band: float = DEFAULT_REL_BAND,
    abs_band_ms: float = DEFAULT_ABS_BAND_MS,
) -> TraceDiff:
    """Diff run B against baseline run A, aligned by fingerprint."""
    records_a = [_to_record(event) for event in events_a]
    records_b = [_to_record(event) for event in events_b]
    report = baseline.compare(
        records_a, records_b,
        thresholds={"": rel_band}, abs_floor=abs_band_ms,
    )
    labels: dict[str, str] = {}
    for record in (*records_a, *records_b):
        if not labels.get(record.bench):
            labels[record.bench] = record.meta["query"]

    diff = TraceDiff(
        entries=[], rel_band=rel_band, abs_band_ms=abs_band_ms
    )
    # compare() returns entries sorted by (bench, metric).
    for fp, group in groupby(report.entries, key=lambda e: e.bench):
        by_metric = {entry.metric: entry for entry in group}
        wall = by_metric["wall_ms"]
        if wall.status == "missing":
            diff.only_a.append(fp)
            continue
        if wall.status == "new":
            diff.only_b.append(fp)
            continue
        # A metric measured on one side only moved from / to zero.
        delta = {
            metric: (entry.current or 0.0) - (entry.baseline or 0.0)
            for metric, entry in by_metric.items()
            if entry.current or entry.baseline
        }
        path = by_metric.get("path_ms")
        one_sided = path is None or path.status in ("missing", "new")
        diff.entries.append(DiffEntry(
            fingerprint=fp,
            query=labels[fp],
            wall_a_ms=wall.baseline,
            wall_b_ms=wall.current,
            bucket_delta_ms={
                bucket: delta[_BUCKET + bucket]
                for bucket in BUCKETS if _BUCKET + bucket in delta
            },
            prefix_delta_ms={
                metric[len(_PREFIX):]: delta.get(metric, 0.0)
                for metric in by_metric if metric.startswith(_PREFIX)
            },
            path_delta_ms=(
                None if one_sided else path.current - path.baseline
            ),
            regression=wall.status == "regressed",
        ))
    return diff
