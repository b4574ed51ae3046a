"""Group-by kernels: factorise key tuples into dense group numbers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.operators.joins import DIRECT_SPAN_FACTOR, direct_window
from repro.engine.operators.sorting import RADIX_CELLS, stable_order


@dataclass
class GroupedKeys:
    """Dense group numbering of the input rows.

    ``group_of_row[i]`` is the group number of input row ``i``;
    ``representative[g]`` is the first input row of group ``g`` (used to
    read back the key values); groups are numbered in first-appearance
    order, matching the hardware accelerator's "assign group numbers in
    increasing order" rule (Sec. VI-C).
    """

    group_of_row: np.ndarray
    representative: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.representative)


def group_rows(key_columns: list[np.ndarray], nrows: int = 0) -> GroupedKeys:
    """Factorise one or more equal-length key columns.

    With no key columns, all ``nrows`` rows fall into a single global
    group (SQL's implicit group for aggregate-only queries).

    Three routes, chosen from the inputs alone, give the same numbering:
    integer keys whose value grid — the product of the per-key spans
    ``max - min + 1`` — has at most ``DIRECT_SPAN_FACTOR`` cells per
    row are numbered through a table indexed by the mixed-radix cell
    (the accelerator's look-up, Sec. VI-C); anything else is sorted —
    the cells by radix passes while the grid fits 48 bits, the key
    tuples (floats, wider grids) by comparison.
    """
    if not key_columns:
        return GroupedKeys(
            group_of_row=np.zeros(nrows, dtype=np.int64),
            representative=np.zeros(1, dtype=np.int64),
        )

    keys = [np.asarray(k) for k in key_columns]
    n = len(keys[0])
    if n == 0:
        return GroupedKeys(
            group_of_row=np.empty(0, dtype=np.int64),
            representative=np.empty(0, dtype=np.int64),
        )
    grid = _grid_cells(keys, RADIX_CELLS)
    if grid is None:
        return _group_sorted(keys)
    cell, cells = grid
    if cells <= DIRECT_SPAN_FACTOR * n:
        return _group_direct(cell, cells)
    return _group_sorted([cell], stable_order(cell, cells))


def _grid_cells(
    keys: list[np.ndarray], budget: int | None = None
) -> tuple[np.ndarray, int] | None:
    """Each row's cell in the keys' value grid, and the grid's size;
    None when the grid is not integer or over ``budget`` cells (by
    default the direct route's, ``DIRECT_SPAN_FACTOR`` per row)."""
    if budget is None:
        budget = DIRECT_SPAN_FACTOR * len(keys[0])
    cell, cells = None, 1
    for key in keys:
        window = direct_window(key, budget // cells)
        if window is None:
            return None
        kmin, span = window
        digit = np.subtract(key, kmin, dtype=np.int64)
        cell = digit if cell is None else cell * span + digit
        cells *= span
    return cell, cells


def _group_direct(cell: np.ndarray, cells: int) -> GroupedKeys:
    """Number groups through a table over the grid cells: O(rows)."""
    rows = np.arange(len(cell), dtype=np.int64)
    # Only cells some row lands on are ever read, so no fill.  Scattered
    # back to front, the write that survives in a cell is its first row.
    table = np.empty(cells, dtype=np.int64)
    table[cell[::-1]] = rows[::-1]
    representative = np.flatnonzero(table[cell] == rows)
    table[cell[representative]] = np.arange(
        len(representative), dtype=np.int64
    )
    return GroupedKeys(table[cell], representative)


def _group_sorted(
    keys: list[np.ndarray], order: np.ndarray | None = None
) -> GroupedKeys:
    """Factorise through ``order``, a stable sort of the rows by the key
    tuple (by default the comparison sort's): mark where the tuple
    changes, then renumber the groups by first appearance.  Stability
    makes the first row of each sorted run its group's first row."""
    if order is None:
        order = np.lexsort(tuple(reversed(keys)))
    n = len(keys[0])
    boundaries = np.zeros(n, dtype=np.bool_)
    boundaries[0] = True
    for key in keys:
        ordered = key[order]
        boundaries[1:] |= ordered[1:] != ordered[:-1]
    sorted_gid = np.cumsum(boundaries) - 1
    first_seen = order[boundaries]

    # Renumber so group ids follow first appearance in input order.
    by_appearance = stable_order(first_seen, n)
    appearance_rank = np.empty(len(first_seen), dtype=np.int64)
    appearance_rank[by_appearance] = np.arange(
        len(first_seen), dtype=np.int64
    )
    group_of_row = np.empty(n, dtype=np.int64)
    group_of_row[order] = appearance_rank[sorted_gid]
    return GroupedKeys(group_of_row, first_seen[by_appearance])


def aggregate_sum(values: np.ndarray, groups: GroupedKeys) -> np.ndarray:
    out = np.zeros(groups.n_groups, dtype=values.dtype)
    np.add.at(out, groups.group_of_row, values)
    return out


def aggregate_count(groups: GroupedKeys) -> np.ndarray:
    return np.bincount(groups.group_of_row, minlength=groups.n_groups)


def aggregate_min(values: np.ndarray, groups: GroupedKeys) -> np.ndarray:
    out = np.full(groups.n_groups, _identity_max(values.dtype))
    np.minimum.at(out, groups.group_of_row, values)
    return out


def aggregate_max(values: np.ndarray, groups: GroupedKeys) -> np.ndarray:
    out = np.full(groups.n_groups, _identity_min(values.dtype))
    np.maximum.at(out, groups.group_of_row, values)
    return out


def aggregate_count_distinct(
    values: np.ndarray, groups: GroupedKeys
) -> np.ndarray:
    """Distinct values per group (host-only; the Swissknife lacks it)."""
    out = np.zeros(groups.n_groups, dtype=np.int64)
    pairs = np.stack([groups.group_of_row, values.astype(np.int64)])
    unique_pairs = np.unique(pairs, axis=1)
    np.add.at(out, unique_pairs[0], 1)
    return out


def _identity_max(dtype):
    if np.issubdtype(dtype, np.floating):
        return np.inf
    return np.iinfo(dtype).max


def _identity_min(dtype):
    if np.issubdtype(dtype, np.floating):
        return -np.inf
    return np.iinfo(dtype).min
