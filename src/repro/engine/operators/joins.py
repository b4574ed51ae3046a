"""Equi-join kernels.

One kernel, :func:`inner_join_indices`, serves the monolithic engine,
the morsel path and the device executor.  It finds, for every probe
(left) row, the run of build (right) rows holding the same key, by one
of two routes chosen from the inputs alone:

* **direct-address** — integer keys whose build-side span
  ``max - min + 1`` is at most ``DIRECT_SPAN_FACTOR`` cells per input
  row are counted into a table indexed by ``key - min``; each probe is
  one O(1) look-up, the whole join O(rows + span).  A unique build side
  (the usual primary-key case) needs no sort at all.
* **sort + binary search** — everything else (non-integer keys,
  composite keys spanning ~10^12, spans beyond int64): sort the build
  side — by radix passes while its integer span fits 48 bits —,
  ``searchsorted`` the probe keys, the way MonetDB joins unsorted
  inputs.

Both routes describe the matches as ``(order, lo, counts)`` and share
one expansion into pair lists, so the output does not depend on the
route.  Semi/anti joins reduce the pair list (or, when no residual
predicate is involved, short-circuit to a membership test).
"""

from __future__ import annotations

import numpy as np

from repro.engine.operators.sorting import RADIX_CELLS, stable_order

# Table cells the direct-address route may spend per input row
# (len(left) + len(right)); keeps its scratch memory O(rows).
DIRECT_SPAN_FACTOR = 4

_Probe = tuple[np.ndarray, np.ndarray, np.ndarray]


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


def inner_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
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

    probe = _probe_direct(left_keys, right_keys)
    if probe is None:
        probe = _probe_sorted(left_keys, right_keys)
    return _expand(*probe)


def _probe_sorted(left_keys: np.ndarray, right_keys: np.ndarray) -> _Probe:
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
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    return order, lo, hi - lo


def _probe_direct(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> _Probe | None:
    """Probe through a table indexed by ``key - min``; None if unfit."""
    if not _fits_int64(left_keys):
        return None
    window = direct_window(
        right_keys, DIRECT_SPAN_FACTOR * (len(left_keys) + len(right_keys))
    )
    if window is None:
        return None
    kmin, span = window

    right_cell = np.subtract(right_keys, kmin, dtype=np.int64)
    # One spare cell past the window collects every probe key outside
    # it.  ``left - kmin`` may wrap for far-away keys, but never into
    # [0, span): read as unsigned, all out-of-window differences are
    # >= span, so one ``minimum`` both masks and clamps them.
    left_cell = np.minimum(
        np.subtract(left_keys, kmin, dtype=np.int64).view(np.uint64),
        np.uint64(span),
    ).view(np.int64)
    per_key = np.bincount(right_cell, minlength=span + 1)
    counts = per_key[left_cell]

    if len(right_keys) == np.count_nonzero(per_key):
        # Unique build keys: the table holds the build row itself.
        slot = np.empty(span + 1, dtype=np.int64)
        slot[right_cell] = np.arange(len(right_keys), dtype=np.int64)
        return slot, left_cell, counts
    order = stable_order(right_cell, span)
    starts = np.cumsum(per_key) - per_key
    return order, starts[left_cell], counts


def _expand(
    order: np.ndarray, lo: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
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
    """Boolean mask of left rows having at least one right match."""
    if len(right_keys) == 0:
        return np.zeros(len(left_keys), dtype=np.bool_)
    return np.isin(left_keys, right_keys)
