"""Critical-path analysis over recorded spans.

The tracer's lane rings hold flat completion-ordered records; this
module rebuilds the span *forest* they came from and answers the
question the doctor asks: *which lane gated this query run, and by how
much?*  Input is a list of ``(lane, record)`` pairs —
:meth:`~repro.obs.spans.Tracer.records` or any window of it — so tests
feed it synthetic fixtures deterministically.

Three steps, all deterministic functions of the record set:

1. **Forest reconstruction.**  Within one lane, records appear in
   completion order carrying their stack depth, so a span's children
   are exactly the trailing already-seen records that are deeper and
   time-contained.  Across lanes there are no recorded parent links (a
   morsel worker's spans come back in the worker's adopted lane), so
   each foreign root is attached to the *deepest* span of the primary
   tree whose interval contains it — the ``morsel.fragment`` span that
   was blocked on the worker pool, in practice.
2. **Critical path.**  Walking backwards from the root's end: the
   last-finishing child that ends before the cursor gates completion,
   the gap after it is the parent's own (self) work, and the walk
   recurses into that child.  Every nanosecond of the root window is
   attributed to exactly one span, so the path duration equals the
   root duration by construction — the invariant the tests pin.
3. **Attribution.**  Each path segment is classified into a bottleneck
   bucket (host, flash_io, row_selector, transformer, swissknife,
   device) by its span's lane and name; bucket fractions therefore sum
   to 1 exactly.

Layering: imports :mod:`repro.obs.spans` only, so every other layer
may use it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.spans import INSTANT

__all__ = [
    "BUCKETS",
    "CritPathAnalysis",
    "PathSegment",
    "SpanNode",
    "analyze_records",
    "build_forest",
    "classify_bucket",
    "critical_path",
]

# Bottleneck buckets, in report order.  ``host`` is the catch-all for
# engine operators, morsel workers and analysis passes; the device
# stages match the synthetic lanes the simulator records on.
BUCKETS = (
    "host",
    "flash_io",
    "row_selector",
    "transformer",
    "swissknife",
    "device",
)


@dataclass
class SpanNode:
    """One reconstructed span interval in the forest."""

    name: str
    lane: str
    t0: int
    t1: int
    depth: int
    self_ns: int
    args: dict[str, Any] | None
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def dur_ns(self) -> int:
        return self.t1 - self.t0

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"SpanNode({self.name}, lane={self.lane}, "
            f"dur={self.dur_ns / 1e6:.3f}ms, "
            f"children={len(self.children)})"
        )


@dataclass(frozen=True)
class PathSegment:
    """One exclusive slice of the critical path."""

    node: SpanNode
    t0: int
    t1: int

    @property
    def dur_ns(self) -> int:
        return self.t1 - self.t0


def classify_bucket(name: str, lane: str) -> str:
    """Map a span to its bottleneck bucket (one of :data:`BUCKETS`)."""
    if "row_selector" in lane:
        return "row_selector"
    if "transformer" in lane:
        return "transformer"
    if "swissknife" in lane:
        return "swissknife"
    if lane == "device" or name.startswith("device."):
        return "device"
    if name.startswith(("io.", "flash.")):
        return "flash_io"
    return "host"


# ---------------------------------------------------------------------------
# Forest reconstruction
# ---------------------------------------------------------------------------


def _lane_forest(records: list[tuple]) -> list[SpanNode]:
    """Rebuild one lane's span trees from its completion-ordered
    records.

    A record's children are the trailing pending nodes that are deeper
    and time-contained — they completed before their parent, so they
    are already sitting at the end of ``pending`` when the parent's
    record arrives.  Ring overflow may have evicted a parent; its
    orphaned children simply surface as extra roots.
    """
    pending: list[SpanNode] = []
    ring_lane = records[0][0] if records else ""
    for _, rec in records:
        name, lane, t0, dur, depth, self_ns, args = rec
        if dur == INSTANT:
            continue
        node = SpanNode(
            name=name,
            lane=lane if lane is not None else ring_lane,
            t0=t0,
            t1=t0 + dur,
            depth=depth,
            self_ns=self_ns,
            args=args,
        )
        adopted: list[SpanNode] = []
        while (
            pending
            and pending[-1].depth > depth
            and pending[-1].t0 >= node.t0
            and pending[-1].t1 <= node.t1
        ):
            adopted.append(pending.pop())
        adopted.reverse()
        node.children = adopted
        pending.append(node)
    return pending


def _deepest_container(roots: list[SpanNode], node: SpanNode) -> SpanNode | None:
    """The deepest span among ``roots``' trees containing ``node``."""
    best: SpanNode | None = None
    frontier = [
        r for r in roots if r.t0 <= node.t0 and node.t1 <= r.t1
    ]
    while frontier:
        best = max(frontier, key=lambda n: n.t0)
        frontier = [
            c
            for c in best.children
            if c is not node and c.t0 <= node.t0 and node.t1 <= c.t1
        ]
    return best


def build_forest(
    records: Iterable[tuple[str, tuple]],
) -> tuple[list[SpanNode], int]:
    """Reconstruct the cross-lane span forest.

    ``records`` are ``(lane, record)`` pairs as yielded by
    :meth:`repro.obs.spans.Tracer.records`.  Returns ``(roots,
    n_instants)``: the forest's roots sorted by start time, with every
    foreign-lane root re-parented under the deepest containing span of
    another lane when one exists (morsel workers nest under their
    ``morsel.fragment``).
    """
    by_lane: dict[str, list[tuple]] = {}
    n_instants = 0
    for ring_lane, rec in records:
        if rec[3] == INSTANT:
            n_instants += 1
            continue
        by_lane.setdefault(ring_lane, []).append((ring_lane, rec))

    lane_roots: dict[str, list[SpanNode]] = {
        ring_lane: _lane_forest(recs)
        for ring_lane, recs in by_lane.items()
    }

    # Cross-lane attachment: try to hang each lane's roots under a
    # containing span recorded in any *other* lane.  Deterministic
    # order: lanes sorted by name, roots by start time.
    all_roots: list[SpanNode] = []
    for ring_lane in sorted(lane_roots):
        for root in lane_roots[ring_lane]:
            others = [
                r
                for other, roots in lane_roots.items()
                if other != ring_lane
                for r in roots
            ]
            parent = _deepest_container(others, root)
            if parent is not None:
                parent.children.append(root)
                parent.children.sort(key=lambda n: (n.t0, n.t1))
            else:
                all_roots.append(root)
    all_roots.sort(key=lambda n: (n.t0, n.t1))
    return all_roots, n_instants


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------


def critical_path(root: SpanNode) -> list[PathSegment]:
    """Extract the chain of spans that gated ``root``'s completion.

    Walking backwards from the end of each span: the last-finishing
    child ending at or before the cursor is the one whose completion
    gated progress; the gap between its end and the cursor is the
    parent's own work.  Every instant of ``[root.t0, root.t1]`` lands
    in exactly one segment, so ``sum(seg.dur_ns) == root.dur_ns``.
    """
    segments: list[PathSegment] = []

    def walk(node: SpanNode, end: int) -> None:
        pos = end
        kids = sorted(
            (c for c in node.children if c.dur_ns >= 0),
            key=lambda c: (c.t1, c.t0),
        )
        while kids:
            while kids and kids[-1].t1 > pos:
                kids.pop()
            if not kids:
                break
            child = kids.pop()
            if child.t1 < pos:
                segments.append(PathSegment(node, child.t1, pos))
            walk(child, child.t1)
            pos = child.t0
        if node.t0 < pos:
            segments.append(PathSegment(node, node.t0, pos))

    walk(root, root.t1)
    segments.reverse()
    return segments


# ---------------------------------------------------------------------------
# Full analysis
# ---------------------------------------------------------------------------


@dataclass
class CritPathAnalysis:
    """Everything the doctor derives from one recorded run."""

    root: SpanNode
    segments: list[PathSegment]
    lane_busy_ns: dict[str, int]
    attribution: dict[str, float]  # bucket -> fraction of the path
    n_orphans: int                 # roots not contained by the window
    n_instants: int

    @property
    def wall_ns(self) -> int:
        return self.root.dur_ns

    @property
    def path_ns(self) -> int:
        return sum(seg.dur_ns for seg in self.segments)

    @property
    def bottleneck(self) -> str:
        """The bucket with the largest critical-path share."""
        return max(
            self.attribution, key=lambda b: (self.attribution[b], b)
        )

    def lane_utilization(self) -> dict[str, float]:
        wall = max(self.wall_ns, 1)
        return {
            lane: busy / wall
            for lane, busy in self.lane_busy_ns.items()
        }

    def top_path_spans(self, top: int = 10) -> list[tuple[str, str, int]]:
        """Per-span-name path time, hottest first: (name, bucket, ns)."""
        acc: dict[tuple[str, str], int] = {}
        for seg in self.segments:
            key = (
                seg.node.name,
                classify_bucket(seg.node.name, seg.node.lane),
            )
            acc[key] = acc.get(key, 0) + seg.dur_ns
        ranked = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
        if top:
            ranked = ranked[:top]
        return [(name, bucket, ns) for (name, bucket), ns in ranked]

    def format(self, top: int = 10) -> str:
        lines = [
            f"critical path: {self.path_ns / 1e6:.2f}ms over "
            f"{len(self.segments)} segments "
            f"(window {self.wall_ns / 1e6:.2f}ms, "
            f"root {self.root.name})"
        ]
        for name, bucket, ns in self.top_path_spans(top):
            lines.append(
                f"  {ns / 1e6:>10.2f}ms  {name:<28} [{bucket}]"
            )
        lines.append("lane utilization:")
        for lane in sorted(self.lane_busy_ns):
            busy = self.lane_busy_ns[lane]
            share = busy / max(self.wall_ns, 1)
            lines.append(
                f"  {lane:<24} {share:>6.1%}  {busy / 1e6:.2f}ms"
            )
        lines.append("bottleneck attribution (critical-path share):")
        for bucket in BUCKETS:
            frac = self.attribution.get(bucket, 0.0)
            if frac:
                lines.append(f"  {bucket:<14} {frac:>6.1%}")
        if self.n_orphans:
            lines.append(
                f"  ({self.n_orphans} spans outside the root window)"
            )
        return "\n".join(lines)


def _find_root(roots: list[SpanNode], root_name: str | None) -> SpanNode:
    if root_name is not None:
        named = [
            n
            for r in roots
            for n in r.walk()
            if n.name == root_name
        ]
        if named:
            return max(named, key=lambda n: n.dur_ns)
    return max(roots, key=lambda n: n.dur_ns)


def analyze_records(
    records: Iterable[tuple[str, tuple]],
    root_name: str | None = None,
) -> CritPathAnalysis:
    """Run the full pipeline over raw ``(lane, record)`` pairs.

    ``root_name`` selects the analysis window (e.g. ``doctor.query``);
    without it the longest root span wins.  Raises ``ValueError`` when
    no spans were recorded.
    """
    records = list(records)
    roots, n_instants = build_forest(records)
    if not roots:
        raise ValueError("no spans recorded; run under a live Tracer")
    root = _find_root(roots, root_name)
    segments = critical_path(root)

    # Lane busy time: per-lane self-time of spans inside the window.
    # Self-time partitions each ring's wall-clock, so lanes never
    # double count their own nesting.
    lane_busy: dict[str, int] = {}
    window = (root.t0, root.t1)
    n_orphans = 0
    for ring_lane, rec in records:
        name, lane, t0, dur, _depth, self_ns, _args = rec
        if dur == INSTANT:
            continue
        if t0 < window[0] or t0 + dur > window[1]:
            if rec is not None and name != root.name:
                n_orphans += 1
            continue
        lane_name = lane if lane is not None else ring_lane
        lane_busy[lane_name] = lane_busy.get(lane_name, 0) + self_ns

    path_ns = sum(seg.dur_ns for seg in segments)
    attribution: dict[str, float] = dict.fromkeys(BUCKETS, 0.0)
    if path_ns > 0:
        for seg in segments:
            bucket = classify_bucket(seg.node.name, seg.node.lane)
            attribution[bucket] += seg.dur_ns / path_ns
    attribution = {b: f for b, f in attribution.items() if f > 0}

    return CritPathAnalysis(
        root=root,
        segments=segments,
        lane_busy_ns=lane_busy,
        attribution=attribution,
        n_orphans=n_orphans,
        n_instants=n_instants,
    )

