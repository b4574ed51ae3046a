"""Aggregate-GroupBy accelerator (Sec. VI-C, Fig. 12).

Group-identifier Row Vectors are zipped into a composite key, hashed
into a 1024-bucket table whose buckets hold at most one group
identifier of up to 16 bytes.  Groups that lose a hash collision spill
to the host; everything else reduces (sum/min/max/cnt, up to 8
aggregate columns) into banked SRAM indexed by group number.

The model reproduces the two behaviours the evaluation leans on:

- group counts up to 1024 reduce entirely in-device (most TPC-H
  queries);
- Q18-style aggregations (one group per order key) overflow massively
  and the spill fraction goes to ~100 %, making offload unprofitable
  for that operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # the host's kernel; core imports it only to type
    from repro.engine.operators.grouping import GroupedKeys

HASH_BUCKETS = 1024
MAX_GROUP_ID_BYTES = 16
MAX_AGGREGATE_COLUMNS = 8
SRAM_PARTITIONS = 32

# Knuth multiplicative hashing on the zipped group identifier.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def bucket_of(group_ids: np.ndarray, n_buckets: int = HASH_BUCKETS):
    """Hash composite group identifiers to bucket numbers.

    SplitMix64-style finalizer: zipped identifiers often differ only in
    high bits (column concatenation), so the mix must diffuse the whole
    word before the bucket modulo.
    """
    h = group_ids.astype(np.uint64)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return (h % np.uint64(n_buckets)).astype(np.int64)


@dataclass
class GroupByResult:
    """Device-side aggregates plus the spilled row set.

    ``group_ids`` / ``aggregates`` cover the groups that won their
    buckets (in group-number assignment order).  ``spilled_rows`` are
    input row positions the host must aggregate itself; the paper's
    partial-offload path ships them via DMA.
    """

    group_ids: np.ndarray
    aggregates: dict[str, np.ndarray]
    counts: np.ndarray
    spilled_rows: np.ndarray
    n_spilled_groups: int

    @property
    def n_groups(self) -> int:
        return len(self.group_ids)

    @property
    def spill_fraction(self) -> float:
        total = self.n_groups + self.n_spilled_groups
        return self.n_spilled_groups / total if total else 0.0


class AggregateGroupBy:
    """Functional model of the group-by accelerator."""

    def __init__(
        self,
        n_buckets: int = HASH_BUCKETS,
        max_group_id_bytes: int = MAX_GROUP_ID_BYTES,
    ):
        self.n_buckets = n_buckets
        self.max_group_id_bytes = max_group_id_bytes
        self.rows_reduced = 0

    def run(
        self,
        group_ids: np.ndarray,
        columns: dict[str, np.ndarray],
        funcs: dict[str, str],
        group_id_bytes: int = 8,
    ) -> GroupByResult:
        """Reduce ``columns`` by ``group_ids``.

        ``funcs`` maps column name to one of ``sum|min|max|cnt``.
        ``group_id_bytes`` is the zipped identifier width; identifiers
        wider than 16 bytes cannot enter the hash table and everything
        spills (the compiler normally suspends before this point).
        """
        if len(funcs) > MAX_AGGREGATE_COLUMNS:
            raise ValueError(
                f"{len(funcs)} aggregate columns > "
                f"{MAX_AGGREGATE_COLUMNS} per group slot"
            )
        n = len(group_ids)
        self.rows_reduced += n
        if group_id_bytes > self.max_group_id_bytes:
            return GroupByResult(
                group_ids=np.empty(0, dtype=np.int64),
                aggregates={k: np.empty(0, dtype=np.int64) for k in funcs},
                counts=np.empty(0, dtype=np.int64),
                spilled_rows=np.arange(n, dtype=np.int64),
                n_spilled_groups=len(np.unique(group_ids)),
            )

        group_ids = group_ids.astype(np.int64)
        wins, _ = self._claims(group_ids)
        spilled_rows = np.flatnonzero(~wins)
        n_spilled_groups = (
            len(np.unique(group_ids[spilled_rows])) if len(spilled_rows) else 0
        )

        winning = np.flatnonzero(wins)
        win_groups = group_ids[winning]
        # Group numbers assigned in first-appearance order (Sec. VI-C).
        unique_ids, inverse = np.unique(win_groups, return_inverse=True)
        first_row = np.full(len(unique_ids), n, dtype=np.int64)
        np.minimum.at(first_row, inverse, winning)
        rank = np.argsort(np.argsort(first_row, kind="stable"))
        gnum = rank[inverse]
        ordered_ids = np.empty(len(unique_ids), dtype=np.int64)
        ordered_ids[rank] = unique_ids

        counts = np.zeros(len(unique_ids), dtype=np.int64)
        np.add.at(counts, gnum, 1)

        aggregates: dict[str, np.ndarray] = {}
        for name, func in funcs.items():
            values = columns[name][winning].astype(np.int64)
            if func == "sum":
                out = np.zeros(len(unique_ids), dtype=np.int64)
                np.add.at(out, gnum, values)
            elif func == "min":
                out = np.full(len(unique_ids), np.iinfo(np.int64).max)
                np.minimum.at(out, gnum, values)
            elif func == "max":
                out = np.full(len(unique_ids), np.iinfo(np.int64).min)
                np.maximum.at(out, gnum, values)
            elif func == "cnt":
                out = counts.copy()
            else:
                raise ValueError(f"unknown aggregate function {func!r}")
            aggregates[name] = out

        return GroupByResult(
            group_ids=ordered_ids,
            aggregates=aggregates,
            counts=counts,
            spilled_rows=spilled_rows,
            n_spilled_groups=n_spilled_groups,
        )

    def spills(
        self, group_ids: np.ndarray, n_distinct: int,
        group_id_bytes: int = 8,
    ) -> tuple[int, int]:
        """``(n_spilled_groups, n_spilled_rows)`` of :meth:`run` on
        ``group_ids``, which hold ``n_distinct`` distinct identifiers,
        without reducing the winners.

        A bucket's owner wins on every row and any other identifier
        spills on every row, so the spilled groups are the distinct
        identifiers less the claimed buckets.
        """
        n = len(group_ids)
        self.rows_reduced += n
        if group_id_bytes > self.max_group_id_bytes:
            return n_distinct, n
        wins, claimed = self._claims(group_ids.astype(np.int64))
        return (
            n_distinct - int(np.count_nonzero(claimed)),
            n - int(np.count_nonzero(wins)),
        )

    def _claims(self, group_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row: does its identifier own its bucket?  Per bucket: is
        it claimed?  The first identifier to reach a bucket owns it (the
        hardware keeps one and spills the rest, Sec. VI-C)."""
        n = len(group_ids)
        buckets = bucket_of(group_ids, self.n_buckets)
        first_claim = np.full(self.n_buckets, n, dtype=np.int64)
        np.minimum.at(first_claim, buckets, np.arange(n, dtype=np.int64))
        claimed = first_claim < n
        bucket_owner = np.full(self.n_buckets, -1, dtype=np.int64)
        bucket_owner[claimed] = group_ids[first_claim[claimed]]
        return bucket_owner[buckets] == group_ids, claimed


def zip_group_columns(
    key_columns: list[np.ndarray],
    widths: list[int],
    groups: GroupedKeys | None = None,
) -> tuple[np.ndarray, int]:
    """The Column Zipper: pack key columns into one composite identifier.

    Returns (identifiers, identifier_bytes).  Packing is by bit
    concatenation of the per-column raw values at their physical widths;
    identifiers above 8 packed bytes fall back to a collision-free
    surrogate (the model equivalent of a wider zip): the rank of each
    row's key tuple among the distinct tuples in sorted order, while
    still reporting the true zipped byte width for the 16-byte rule.
    ``groups``, the host's numbering of the same key tuples, lets that
    rank come from its representative tuples alone.
    """
    if not key_columns:
        return np.zeros(0, dtype=np.int64), 0
    total_bytes = sum(widths)
    if total_bytes <= 8:
        packed = np.zeros(len(key_columns[0]), dtype=np.uint64)
        for col, width in zip(key_columns, widths):
            packed = (packed << np.uint64(8 * width)) | col.astype(np.uint64)
        return packed.astype(np.int64), total_bytes
    if groups is None:
        stacked = np.stack([c.astype(np.int64) for c in key_columns])
        _, surrogate = np.unique(stacked, axis=1, return_inverse=True)
        return surrogate.astype(np.int64), total_bytes
    # One lexsort of the G representatives (its last key sorts first).
    tuples = [c[groups.representative].astype(np.int64) for c in key_columns]
    rank = np.empty(groups.n_groups, dtype=np.int64)
    rank[np.lexsort(tuples[::-1])] = np.arange(groups.n_groups)
    return rank[groups.group_of_row], total_bytes
