"""Equi-join kernels.

One kernel, :func:`inner_join_indices`, serves the monolithic engine,
the morsel path and the device executor.  It finds, for every probe
(left) row, the build (right) rows holding the same key, by one of two
routes chosen from the inputs alone:

* **direct-address** — integer keys whose build-side span
  ``max - min + 1`` is at most ``DIRECT_SPAN_FACTOR`` cells per input
  row go through a table indexed by ``key - min``; each probe is one
  O(1) look-up, the whole join O(rows + span).  A unique build side
  (the usual primary-key case) stores its row in the table, so a probe
  row's look-up *is* its match: no sort, no per-key count.
* **sort + binary search** — everything else (non-integer keys,
  composite keys spanning ~10^12, spans beyond int64): sort the build
  side — by radix passes while its integer span fits 48 bits —,
  ``searchsorted`` the probe keys, the way MonetDB joins unsorted
  inputs.  A unique integer build side needs one search and an
  equality test per probe row.

A duplicated build side describes the matches as ``(order, lo,
counts)`` runs on either route, and one expansion turns them into pair
lists; every route gives the same pairs in the same order.  Semi/anti
joins reduce the pair list (or, when no residual predicate is
involved, short-circuit to a membership test).
"""

from __future__ import annotations

import numpy as np

from repro.engine.operators.sorting import RADIX_CELLS, stable_order

# Table cells the direct-address route may spend per input row
# (len(left) + len(right)); keeps its scratch memory O(rows).
DIRECT_SPAN_FACTOR = 4

_Pairs = tuple[np.ndarray, np.ndarray]


def _fits_int64(keys: np.ndarray) -> bool:
    """Integer keys whose every value int64 arithmetic can hold."""
    return keys.dtype.kind in "iu" and np.can_cast(keys.dtype, np.int64)


def direct_window(keys: np.ndarray, cells: int) -> tuple[int, int] | None:
    """``(min, span)`` of non-empty integer ``keys`` for a table indexed
    by ``key - min``, or None when ``span = max - min + 1`` exceeds
    ``cells`` (or the keys are not integers).
    """
    if not _fits_int64(keys):
        return None
    kmin = int(keys.min())
    span = int(keys.max()) - kmin + 1  # Python ints: cannot overflow
    return (kmin, span) if span <= cells else None


def _probe_window(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[int, int] | None:
    """The build side's direct-address window, or None if unfit."""
    if not _fits_int64(left_keys):
        return None
    return direct_window(
        right_keys, DIRECT_SPAN_FACTOR * (len(left_keys) + len(right_keys))
    )


def _probe_cells(keys: np.ndarray, kmin: int, span: int) -> np.ndarray:
    """``keys - kmin`` as table cells, every key outside the window on
    the one spare cell ``span``.

    ``keys - kmin`` may wrap for far-away keys, but never into
    ``[0, span)``: read as unsigned, every out-of-window difference is
    ``>= span``, so one in-place ``minimum`` both masks and clamps.
    """
    cell = np.subtract(keys, kmin, dtype=np.int64)
    unsigned = cell.view(np.uint64)
    np.minimum(unsigned, np.uint64(span), out=unsigned)
    return cell


def inner_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> _Pairs:
    """All matching (left_row, right_row) pairs of an inner equi-join.

    Pairs are produced in left-row-major order — and, within one left
    row, in ascending right-row order — so downstream gathers keep the
    left relation's row order, like MonetDB's fetch joins.
    """
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    if len(left_keys) == 0 or len(right_keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    pairs = _join_direct(left_keys, right_keys)
    if pairs is None:
        pairs = _join_sorted(left_keys, right_keys)
    return pairs


def _join_direct(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> _Pairs | None:
    """Join through a table indexed by ``key - min``; None if unfit."""
    window = _probe_window(left_keys, right_keys)
    if window is None:
        return None
    kmin, span = window

    right_cell = np.subtract(right_keys, kmin, dtype=np.int64)
    left_cell = _probe_cells(left_keys, kmin, span)
    # More build rows than cells must repeat a key: skip the table.
    if len(right_keys) <= span:
        # The build row of each key; -1 in absent cells and the spare.
        slot = np.full(span + 1, -1, dtype=np.int64)
        slot[right_cell] = np.arange(len(right_keys), dtype=np.int64)
        if np.count_nonzero(slot >= 0) == len(right_keys):
            hit = slot[left_cell]
            li = np.flatnonzero(hit >= 0)
            return li, hit[li]

    per_key = np.bincount(right_cell, minlength=span + 1)
    starts = np.cumsum(per_key) - per_key
    return _expand(
        stable_order(right_cell, span), starts[left_cell], per_key[left_cell]
    )


def _join_sorted(left_keys: np.ndarray, right_keys: np.ndarray) -> _Pairs:
    """Sort the build side, binary-search every probe key into it."""
    window = direct_window(right_keys, RADIX_CELLS)
    if window is None:
        order = np.argsort(right_keys, kind="stable")
    else:
        kmin, span = window
        order = stable_order(
            np.subtract(right_keys, kmin, dtype=np.int64), span
        )
    sorted_right = right_keys[order]
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    if (
        _fits_int64(left_keys)
        and _fits_int64(right_keys)
        and not np.any(sorted_right[1:] == sorted_right[:-1])
    ):
        # Unique integer build keys: a probe matches iff the key at its
        # insertion point equals it.  (Float keys keep both searches:
        # they bracket a NaN probe onto the build side's NaNs, which an
        # equality test would not.)
        np.minimum(lo, len(sorted_right) - 1, out=lo)
        li = np.flatnonzero(sorted_right[lo] == left_keys)
        return li, order[lo[li]]
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    return _expand(order, lo, hi - lo)


def _expand(order: np.ndarray, lo: np.ndarray, counts: np.ndarray) -> _Pairs:
    """Pair lists from per-left-row runs ``order[lo : lo + counts]``."""
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    matched = np.flatnonzero(counts)
    if len(matched) == total:
        # At most one match per left row: no runs to enumerate.
        return matched, order[lo[matched]]

    left_out = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.repeat(lo, counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return left_out, order[starts + within]


def semi_join_mask(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> np.ndarray:
    """Boolean mask of left rows having at least one right match.

    Integer keys inside the join's direct-address window test
    membership in a bool table over that window; others use
    ``np.isin``.
    """
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    if len(right_keys) == 0:
        return np.zeros(len(left_keys), dtype=np.bool_)
    window = _probe_window(left_keys, right_keys)
    if window is None:
        return np.isin(left_keys, right_keys)
    kmin, span = window
    member = np.zeros(span + 1, dtype=np.bool_)
    member[np.subtract(right_keys, kmin, dtype=np.int64)] = True
    return member[_probe_cells(left_keys, kmin, span)]
