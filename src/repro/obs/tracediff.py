"""Trace-diff: attribute the delta between two query-log runs.

``python -m repro tracediff <run-a.jsonl> <run-b.jsonl>`` aligns two
runs' wide events by **plan fingerprint** (the structural digest from
:func:`repro.obs.context.plan_fingerprint` — stable across processes,
backends and machines), then explains where the time went:

1. Each wide event becomes metrics keyed by its fingerprint
   (``wall_ms``, ``path_ms``, one per critical-path bucket, one per
   ``top_spans`` prefix); a wall-time increase is a regression only
   beyond both noise bands, ``|Δ| > max(rel_band·|A|, abs_band_ms)``.
2. The per-bucket deltas *sum to the critical-path delta by
   construction* (buckets partition the path, the path spans the root
   window), so "process is slower than serial" decomposes into "+3.1ms
   host, +0.8ms flash_io" instead of a bare total.
3. Span-prefix attribution (``morsel.*``, ``engine.*``, ``device.*``)
   from each event's ``top_spans`` names the code that moved.

Alignment rules: events missing on either side are reported, never
silently dropped; multiple events with one fingerprint (several seeds,
several backends in one log) collapse to per-metric medians, so repeats
self-filter outliers; an event without a
``critpath`` section still contributes its wall time but attributes
nothing.

Layering: reads JSONL only — no engine imports — so it can diff runs
from other checkouts and CI artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Iterable

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

# Metric-name namespaces of the per-event metrics.
_BUCKET = "bucket."
_PREFIX = "prefix."


def load_wide_events(path: str) -> list[dict[str, Any]]:
    """Parse a query-log JSONL file (ignoring blank lines); a line that
    is not JSON raises ``ValueError`` naming ``path:line``."""
    events: list[dict[str, Any]] = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                msg = f"{path}:{ln}: bad wide event ({exc})"
                raise ValueError(msg) from exc
    return events


def _span_prefix(name: str) -> str:
    return name.split(".", 1)[0] + ".*" if "." in name else name


def _event_metrics(event: dict[str, Any]) -> dict[str, float]:
    """The metrics one wide event contributes to its fingerprint."""
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
    return metrics


def _medians(
    events: Iterable[dict[str, Any]], labels: dict[str, str]
) -> dict[str, dict[str, float]]:
    """``fingerprint -> metric -> median`` over the events sharing the
    fingerprint; records each fingerprint's first non-empty query name
    in ``labels``."""
    samples: dict[str, dict[str, list[float]]] = {}
    for event in events:
        fp = event["fingerprint"]
        if not labels.get(fp):
            labels[fp] = event.get("query", "")
        per_metric = samples.setdefault(fp, {})
        for metric, value in _event_metrics(event).items():
            per_metric.setdefault(metric, []).append(value)
    return {
        fp: {metric: median(vals) for metric, vals in per_metric.items()}
        for fp, per_metric in samples.items()
    }


def _regressed(a: float, b: float, rel_band: float, abs_band: float) -> bool:
    """B is slower than A beyond both bands; the absolute floor keeps
    near-zero baselines from turning jitter into a regression."""
    rel = (b - a) / abs(a) if a else (0.0 if b == 0 else float("inf"))
    return rel >= 0 and abs(rel) > rel_band and abs(b - a) > abs_band


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
    labels: dict[str, str] = {}
    medians_a = _medians(events_a, labels)
    medians_b = _medians(events_b, labels)
    diff = TraceDiff(
        entries=[], rel_band=rel_band, abs_band_ms=abs_band_ms
    )
    for fp in sorted(medians_a.keys() | medians_b.keys()):
        if fp not in medians_b:
            diff.only_a.append(fp)
            continue
        if fp not in medians_a:
            diff.only_b.append(fp)
            continue
        a, b = medians_a[fp], medians_b[fp]
        metrics = sorted(a.keys() | b.keys())
        # A metric measured on one side only moved from / to zero.
        delta = {
            metric: b.get(metric, 0.0) - a.get(metric, 0.0)
            for metric in metrics
            if a.get(metric) or b.get(metric)
        }
        one_sided = "path_ms" not in a or "path_ms" not in b
        diff.entries.append(DiffEntry(
            fingerprint=fp,
            query=labels[fp],
            wall_a_ms=a["wall_ms"],
            wall_b_ms=b["wall_ms"],
            bucket_delta_ms={
                bucket: delta[_BUCKET + bucket]
                for bucket in BUCKETS if _BUCKET + bucket in delta
            },
            prefix_delta_ms={
                metric[len(_PREFIX):]: delta.get(metric, 0.0)
                for metric in metrics if metric.startswith(_PREFIX)
            },
            path_delta_ms=(
                None if one_sided else b["path_ms"] - a["path_ms"]
            ),
            regression=_regressed(
                a["wall_ms"], b["wall_ms"], rel_band, abs_band_ms
            ),
        ))
    return diff
