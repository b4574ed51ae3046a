"""Group-by kernels: factorise key tuples into dense group numbers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.engine.operators.joins import DIRECT_SPAN_FACTOR, direct_window
from repro.engine.operators.sorting import (
    RADIX_CELLS,
    is_ascending,
    stable_order,
)

# Inputs shorter than this skip the run route.  On ascending cells the
# test's full pass plus the run route overtakes the direct route
# between 2 048 and 4 096 rows (DESIGN.md, "Host grouping kernel").
_RUN_MIN_ROWS = 4096

# Grids of at most this many cells take the tiny-grid route, whose
# first-row search starts from a prefix of ``_TINY_PREFIX`` rows.
_TINY_GRID_CELLS = 64
_TINY_PREFIX = 256

# The direct route numbers groups from each cell's first row when the
# grid has at most one cell per this many rows (DESIGN.md, "Host
# grouping kernel").
_CELL_NUMBER_ROWS = 16


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

    @cached_property
    def counts(self) -> np.ndarray:
        """Rows per group (int64), counted once and read-only: every
        COUNT and AVG of one aggregate shares it."""
        counts = np.bincount(self.group_of_row, minlength=self.n_groups)
        counts.flags.writeable = False
        return counts


def group_rows(key_columns: list[np.ndarray], nrows: int = 0) -> GroupedKeys:
    """Factorise one or more equal-length key columns.

    With no key columns, all ``nrows`` rows fall into a single global
    group (SQL's implicit group for aggregate-only queries).

    Five routes, chosen from the inputs alone, give the same numbering.
    A single ascending integer key of at least ``_RUN_MIN_ROWS`` rows
    (a stored-sorted key, or a selection of one) is its own runs,
    numbered by a prefix sum.  Otherwise integer keys become one
    mixed-radix cell per row in their value grid, the product of the
    per-key spans ``max - min + 1``.  A grid of at most
    ``_TINY_GRID_CELLS`` cells (Q1's flags) is counted and gathered;
    cells that never decrease are runs again, once the input is long
    enough for the test to pay; a grid of at most
    ``DIRECT_SPAN_FACTOR`` cells per row is numbered through a table
    indexed by the cell (the accelerator's look-up, Sec. VI-C);
    anything else is sorted — the cells by radix passes while the grid
    fits 48 bits, the key tuples (floats, wider grids) by comparison,
    after dropping each key that adds no groups to the first one's.
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
    runs = n >= _RUN_MIN_ROWS
    if runs and len(keys) == 1 and keys[0].dtype.kind in "iu":
        # One integer key's cells are in the key's own order.
        if is_ascending(keys[0]):
            return _group_runs(keys[0])
        runs = False
    grid = _grid_cells(keys, RADIX_CELLS)
    if grid is None:
        return _group_tuples(keys)
    return _group_grid(*grid, runs)


def _group_grid(cell: np.ndarray, cells: int, runs: bool) -> GroupedKeys:
    """Number grid cells by the tiny, run (if ``runs`` may be), direct
    or sorted-cell route."""
    if cells <= _TINY_GRID_CELLS:
        return _group_tiny(cell, cells)
    if runs and is_ascending(cell):
        return _group_runs(cell)
    if cells <= DIRECT_SPAN_FACTOR * len(cell):
        return _group_direct(cell, cells)
    return _group_sorted([cell], stable_order(cell, cells))


def _group_tuples(keys: list[np.ndarray]) -> GroupedKeys:
    """Sort key tuples off the grid.  When the first key alone fits
    the direct budget, it is numbered first and every later key that
    is constant within its groups — equal to its value at each row's
    representative — is dropped, since it adds no groups (Q10's six
    customer columns after ``c_custkey``): one gather and one compare
    per key.  With none left, the first key's numbering is the
    answer."""
    first_grid = _grid_cells(keys[:1]) if len(keys) > 1 else None
    if first_grid is not None:
        first = _group_grid(*first_grid, len(keys[0]) >= _RUN_MIN_ROWS)
        row_rep = first.representative[first.group_of_row]
        keys = keys[:1] + [
            key for key in keys[1:]
            if not np.array_equal(key[row_rep], key)
        ]
        if len(keys) == 1:
            return first
    return _group_sorted(keys)


def _group_tiny(cell: np.ndarray, cells: int) -> GroupedKeys:
    """Number a tiny grid in two passes over the rows: count each cell,
    then read every row's group through a table over the cells.  The
    first row of each cell that occurs is found in a prefix of the
    rows that grows until it holds them all — usually the first few
    hundred.  The counts are the groups' counts."""
    n = len(cell)
    per_cell = np.bincount(cell, minlength=cells)
    n_groups = np.count_nonzero(per_cell)
    first, start, stop = None, 0, _TINY_PREFIX
    while True:
        chunk = cell[start:stop]
        # Scattered back to front, the write that survives is the first.
        found = np.full(cells, n, dtype=np.int64)
        found[chunk[::-1]] = np.arange(start + len(chunk) - 1, start - 1, -1)
        first = found if first is None else np.minimum(first, found)
        if stop >= n or np.count_nonzero(first < n) == n_groups:
            break
        start, stop = stop, stop * 4
    groups, in_order = _number_cells(cell, first, n_groups)
    counts = per_cell[in_order]
    counts.flags.writeable = False
    groups.counts = counts
    return groups


def _number_cells(
    cell: np.ndarray, first: np.ndarray, n_groups: int
) -> tuple[GroupedKeys, np.ndarray]:
    """Number groups from each cell's first row (``len(cell)`` where no
    row lands): one sort of the grid, one gather over the rows.  Also
    the cells in group order."""
    # Cells no row lands on keep ``len(cell)`` and sort after the groups.
    in_order = np.argsort(first)[:n_groups]
    number = np.empty(len(first), dtype=np.int64)
    number[in_order] = np.arange(n_groups, dtype=np.int64)
    return GroupedKeys(number[cell], first[in_order]), in_order


def _group_runs(cell: np.ndarray) -> GroupedKeys:
    """Number ascending cells' runs: each run is one group, and the
    runs already come in first-appearance order."""
    starts = np.empty(len(cell), dtype=np.bool_)
    starts[0] = True
    np.not_equal(cell[1:], cell[:-1], out=starts[1:])
    group_of_row = np.cumsum(starts, dtype=np.int64)
    group_of_row -= 1
    return GroupedKeys(group_of_row, np.flatnonzero(starts))


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
    """Number groups through a table over the grid cells: O(rows).

    Scattered back to front, the write that survives in a cell is its
    first row.  A grid at least ``_CELL_NUMBER_ROWS`` times smaller
    than the rows is then numbered from those first rows, a sort of the
    grid; a larger one finds the first rows among the rows and numbers
    them in row order, two more passes over the rows."""
    n = len(cell)
    rows = np.arange(n, dtype=np.int64)
    if cells * _CELL_NUMBER_ROWS <= n:
        first = np.full(cells, n, dtype=np.int64)
        first[cell[::-1]] = rows[::-1]
        return _number_cells(
            cell, first, int(np.count_nonzero(first < n))
        )[0]
    # Only cells some row lands on are ever read, so no fill.
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
    return groups.counts


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
    """Distinct values per group (host-only; the Swissknife lacks it).

    Each distinct ``(group, value)`` pair is one group of its own; its
    representative row names the group it counts toward.  The values
    are grouped as they are, so floats stay floats.
    """
    pairs = group_rows([groups.group_of_row, values])
    return np.bincount(
        groups.group_of_row[pairs.representative], minlength=groups.n_groups
    )


def _identity_max(dtype):
    if np.issubdtype(dtype, np.floating):
        return np.inf
    return np.iinfo(dtype).max


def _identity_min(dtype):
    if np.issubdtype(dtype, np.floating):
        return -np.inf
    return np.iinfo(dtype).min
