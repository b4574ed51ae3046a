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

import numpy as np

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

        # Group numbers assigned in first-appearance order (Sec. VI-C).
        unique_ids, first_row, inverse = np.unique(
            group_ids.astype(np.int64), return_index=True,
            return_inverse=True,
        )
        order = np.argsort(first_row, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        group_of_row = rank[inverse]
        wins, _ = self._claims(unique_ids[order])
        row_wins = wins[group_of_row]
        spilled_rows = np.flatnonzero(~row_wins)

        # The winners keep their order; rows of a losing group spill.
        winners = np.flatnonzero(wins)
        renumber = np.cumsum(wins) - 1
        winning = np.flatnonzero(row_wins)
        gnum = renumber[group_of_row[winning]]
        ordered_ids = unique_ids[order[winners]]
        counts = np.bincount(gnum, minlength=len(winners))

        aggregates: dict[str, np.ndarray] = {}
        for name, func in funcs.items():
            values = columns[name][winning].astype(np.int64)
            if func == "sum":
                out = np.zeros(len(winners), dtype=np.int64)
                np.add.at(out, gnum, values)
            elif func == "min":
                out = np.full(len(winners), np.iinfo(np.int64).max)
                np.minimum.at(out, gnum, values)
            elif func == "max":
                out = np.full(len(winners), np.iinfo(np.int64).min)
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
            n_spilled_groups=len(wins) - len(winners),
        )

    def spills(
        self, group_ids: np.ndarray, counts: np.ndarray,
        group_id_bytes: int = 8,
    ) -> tuple[int, int]:
        """``(n_spilled_groups, n_spilled_rows)`` of :meth:`run`, from
        one zipped identifier per group (in group-number order) and the
        group's row count, without reducing the winners.

        A bucket's owner wins on every row and any other group spills
        on every row, so the spilled groups are the groups less the
        claimed buckets, and the spilled rows are the rows less those
        of the winning groups.  Groups may share an identifier; each
        then wins or spills with it.
        """
        n = int(counts.sum())
        self.rows_reduced += n
        if group_id_bytes > self.max_group_id_bytes:
            return len(group_ids), n
        wins, claimed = self._claims(group_ids.astype(np.int64))
        return len(group_ids) - claimed, n - int(counts[wins].sum())

    def _claims(self, group_ids: np.ndarray) -> tuple[np.ndarray, int]:
        """Per group: does its identifier own its bucket?  And how many
        buckets are claimed.  ``group_ids`` holds one identifier per
        group number; the first group number to reach a bucket owns it
        (the hardware numbers groups as they arrive, keeps one
        identifier per bucket and spills the rest, Sec. VI-C)."""
        buckets = bucket_of(group_ids, self.n_buckets)
        claimed, first = np.unique(buckets, return_index=True)
        bucket_owner = np.empty(self.n_buckets, dtype=np.int64)
        bucket_owner[claimed] = group_ids[first]
        return bucket_owner[buckets] == group_ids, len(claimed)


def zip_group_columns(
    key_columns: list[np.ndarray], widths: list[int]
) -> tuple[np.ndarray, int]:
    """The Column Zipper: pack key columns into one composite identifier.

    Returns (identifiers, identifier_bytes).  Packing is by bit
    concatenation of the per-column raw values at their physical widths;
    identifiers above 8 packed bytes fall back to a collision-free
    surrogate (the model equivalent of a wider zip): the rank of each
    row's key tuple among the distinct tuples in sorted order, while
    still reporting the true zipped byte width for the 16-byte rule.
    Zipping one representative row per group gives each group's
    identifier: the surrogate ranks the same distinct tuples.
    """
    if not key_columns:
        return np.zeros(0, dtype=np.int64), 0
    total_bytes = sum(widths)
    if total_bytes <= 8:
        packed = np.zeros(len(key_columns[0]), dtype=np.uint64)
        for col, width in zip(key_columns, widths):
            packed = (packed << np.uint64(8 * width)) | col.astype(np.uint64)
        return packed.astype(np.int64), total_bytes
    stacked = np.stack([c.astype(np.int64) for c in key_columns])
    _, surrogate = np.unique(stacked, axis=1, return_inverse=True)
    return surrogate.astype(np.int64), total_bytes
