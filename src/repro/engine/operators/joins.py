"""Equi-join kernels.

One kernel, :func:`inner_join_indices`, serves the monolithic engine,
the morsel path and the device executor.  It finds, for every probe
(left) row, the build (right) rows holding the same key, by one of
four routes chosen from the inputs alone:

* **searched build** — integer build keys already in ascending order
  (``l_orderkey``, a primary key, a selection of one in row order),
  probed by few enough rows that ``len(left) * log2(len(right))`` is
  small against ``len(right)``: two ``searchsorted`` calls into the
  build side as it is, no table, no sort, no pass over the build side
  beyond the ascending test.
* **searched probe side** — the mirror image: few build keys against
  ascending integer probe keys (Q18's 2 orders against 300 000
  ``l_orderkey`` rows).  Each distinct build key is searched into the
  probe side, where the rows holding it are one run: no cell, look-up
  or search per probe row.
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
  inputs.  More than ``_ORDERED_PROBES`` unsorted probes are searched
  in key order, each search bounded below by the last one's result,
  and the results scattered back.  A unique integer build side needs one
  search and an equality test per probe row.

A duplicated build side describes the matches as ``(order, lo,
counts)`` runs on every route, and one expansion turns them into pair
lists; every route gives the same pairs in the same order.  A signed
key side against a uint64 one (NumPy's common type is float64) first
becomes an int64 pair: uint64 keys past int64 match nothing and are
left out, and every route compares the rest exactly.  Semi/anti
joins reduce the pair list (or, when no residual predicate is
involved, short-circuit to a membership test).
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.operators.sorting import (
    RADIX_CELLS,
    is_ascending,
    stable_order,
)

# Table cells the direct-address route may spend per input row
# (len(left) + len(right)); keeps its scratch memory O(rows).
DIRECT_SPAN_FACTOR = 4
# An ascending build side is searched in place while
# ``len(left) * log2(len(right) + 1) <= _SEARCH_FACTOR * len(right)``,
# and more than ``_ORDERED_PROBES`` unsorted probes are searched in key
# order (DESIGN.md, "Host join kernel", has the measurements).
_SEARCH_FACTOR = 0.5
_ORDERED_PROBES = 512
# Ascending probe keys are searched for the build keys while
# ``len(right) * log2(len(left) + 1) <= _PROBE_SEARCH_FACTOR * len(left)``
# (DESIGN.md, "Host join kernel").
_PROBE_SEARCH_FACTOR = 0.1

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

    if _mixed_sign(left_keys, right_keys):
        left_rows, left_keys = _as_int64(left_keys)
        right_rows, right_keys = _as_int64(right_keys)
        li, ri = inner_join_indices(left_keys, right_keys)
        return _rows(left_rows, li), _rows(right_rows, ri)
    if _searchable(left_keys, right_keys):
        return _search_pairs(left_keys, right_keys, None)
    if _probes_searchable(left_keys, right_keys):
        return _search_probe_side(left_keys, right_keys)
    pairs = _join_direct(left_keys, right_keys)
    if pairs is None:
        pairs = _join_sorted(left_keys, right_keys)
    return pairs


def _mixed_sign(left_keys: np.ndarray, right_keys: np.ndarray) -> bool:
    """Integer keys NumPy would compare as float64: a signed side
    against a uint64 one, whose common type is not an integer."""
    kinds = left_keys.dtype.kind + right_keys.dtype.kind
    return kinds in ("iu", "ui") and np.result_type(
        left_keys.dtype, right_keys.dtype
    ).kind == "f"


def _as_int64(keys: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """One side of a mixed-sign pair, to compare exactly as int64.

    A uint64 key above 2⁶³ − 1 equals no signed key: such rows are
    dropped, and the kept rows' ids come first (None: every row kept,
    the signed side).  A negative signed key equals no uint64 key and
    needs nothing: the uint64 keys left are all ≥ 0.
    """
    if keys.dtype.kind == "i":
        return None, keys
    rows = np.flatnonzero(keys <= np.iinfo(np.int64).max)
    return rows, keys[rows].astype(np.int64)


def _rows(rows: np.ndarray | None, at: np.ndarray) -> np.ndarray:
    """Positions ``at`` of a side :func:`_as_int64` kept ``rows`` of,
    as the side's own row ids."""
    return at if rows is None else rows[at]


def _integer_pair(left_keys: np.ndarray, right_keys: np.ndarray) -> bool:
    """Integer keys on both sides whose common type is an integer: two
    integer dtypes whose common type is not (int64 against uint64 is
    float64) never qualify for a search route."""
    return (
        left_keys.dtype.kind in "iu"
        and right_keys.dtype.kind in "iu"
        and np.result_type(left_keys.dtype, right_keys.dtype).kind in "iu"
    )


def _searchable(left_keys: np.ndarray, right_keys: np.ndarray) -> bool:
    """Whether the build side is integer keys in ascending order that
    the probes search in fewer steps than a pass over it takes.  The
    size test is O(1) and the cheapest, so it comes first; the order
    test reads the build side at most once."""
    build = len(right_keys)
    if len(left_keys) * math.log2(build + 1) > _SEARCH_FACTOR * build:
        return False
    return _integer_pair(left_keys, right_keys) and is_ascending(right_keys)


def _probes_searchable(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> bool:
    """:func:`_searchable` with the sides swapped: integer probe keys
    in ascending order that the build keys search in fewer steps than
    a pass over them takes.  The size test comes first, as there."""
    probe = len(left_keys)
    if len(right_keys) * math.log2(probe + 1) > _PROBE_SEARCH_FACTOR * probe:
        return False
    return _integer_pair(left_keys, right_keys) and is_ascending(left_keys)


def _probe_runs(
    left_keys: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ascending probe rows holding each of the ascending distinct
    ``keys``, run after run, and the length of each key's run.

    Keys wider than the probe side are searched at its width: NumPy
    would otherwise convert the whole probe side to theirs on every
    search.  A key outside the probe side's range holds no run."""
    outside = None
    if left_keys.dtype != keys.dtype and np.can_cast(
        left_keys.dtype, keys.dtype
    ):
        info = np.iinfo(left_keys.dtype)
        outside = (keys < info.min) | (keys > info.max)
        keys = np.clip(keys, info.min, info.max).astype(left_keys.dtype)
    lo = np.searchsorted(left_keys, keys, "left")
    counts = np.searchsorted(left_keys, keys, "right") - lo
    if outside is not None:
        counts[outside] = 0
    rows = np.arange(counts.sum(), dtype=np.int64) + np.repeat(
        lo - (np.cumsum(counts) - counts), counts
    )
    return rows, counts


def _search_probe_side(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> _Pairs:
    """Search each distinct build key into the ascending probe side.

    Its probe rows are one run, and the runs come in key order, which
    is probe-row order: each matching probe row is paired with its
    key's build rows in ascending row order (a stable sort of the build
    side keeps them so), left-row-major like every route."""
    order = np.argsort(right_keys, kind="stable")
    ordered = right_keys[order]
    repeats = ordered[1:] == ordered[:-1]
    if not repeats.any():
        # A unique build side: one build row per run.
        rows, counts = _probe_runs(left_keys, ordered)
        return rows, np.repeat(order, counts)
    starts = np.flatnonzero(np.concatenate(([True], ~repeats)))
    builds = np.diff(np.append(starts, len(ordered)))
    rows, counts = _probe_runs(left_keys, ordered[starts])
    key = np.repeat(np.arange(len(starts)), counts)
    at, right = _expand(order, starts[key], builds[key])
    return rows[at], right


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
    # Unique integer build keys: a probe matches iff the key at its
    # insertion point equals it.  (Float keys keep both searches: they
    # bracket a NaN probe onto the build side's NaNs, which an equality
    # test would not.)
    unique = (
        _fits_int64(left_keys)
        and _fits_int64(right_keys)
        and not np.any(sorted_right[1:] == sorted_right[:-1])
    )
    return _search_pairs(left_keys, sorted_right, order, unique)


def _search_pairs(
    left_keys: np.ndarray,
    sorted_right: np.ndarray,
    order: np.ndarray | None,
    unique: bool = False,
) -> _Pairs:
    """Binary-search every probe key into ``sorted_right``, the build
    keys in the order ``order`` (None: as stored, already ascending).
    A ``unique`` build side takes one search and an equality test."""
    probes, by_key = _probes(left_keys)
    lo = _search(sorted_right, probes, by_key, "left")
    if unique:
        np.minimum(lo, len(sorted_right) - 1, out=lo)
        li = np.flatnonzero(sorted_right[lo] == left_keys)
        right = lo[li]
        return li, right if order is None else order[right]
    hi = _search(sorted_right, probes, by_key, "right")
    return _expand(order, lo, hi - lo)


def _probes(left_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The probe keys in the order they are searched, and that order:
    key order when over ``_ORDERED_PROBES`` of them are out of it —
    NumPy then bounds each search below by the previous result —,
    else as they are (order None)."""
    if len(left_keys) <= _ORDERED_PROBES or is_ascending(left_keys):
        return left_keys, None
    by_key = np.argsort(left_keys)
    return left_keys[by_key], by_key


def _search(
    sorted_right: np.ndarray,
    probes: np.ndarray,
    by_key: np.ndarray | None,
    side: str,
) -> np.ndarray:
    """Insertion points of ``probes`` in ``sorted_right``, scattered
    back to the left rows' order through ``by_key``."""
    found = np.searchsorted(sorted_right, probes, side=side)
    if by_key is None:
        return found
    scattered = np.empty_like(found)
    scattered[by_key] = found
    return scattered


def _expand(
    order: np.ndarray | None, lo: np.ndarray, counts: np.ndarray
) -> _Pairs:
    """Pair lists from per-left-row runs ``order[lo : lo + counts]``;
    ``order`` None is the identity (a build side searched in place)."""
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    matched = np.flatnonzero(counts)
    if len(matched) == total:
        # At most one match per left row: no runs to enumerate.
        left_out, right = matched, lo[matched]
    else:
        left_out = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        right = np.repeat(lo, counts) + within
    return left_out, right if order is None else order[right]


def semi_join_mask(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> np.ndarray:
    """Boolean mask of left rows having at least one right match.

    A build side :func:`inner_join_indices` would search in place is
    searched once per probe, a match being the key at the insertion
    point; a probe side it would search is searched for each distinct
    build key, whose run of probe rows is matched; integer keys inside
    the join's direct-address window test membership in a bool table
    over that window; others use ``np.isin``.
    """
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    if len(right_keys) == 0:
        return np.zeros(len(left_keys), dtype=np.bool_)
    if _mixed_sign(left_keys, right_keys):
        left_rows, probes = _as_int64(left_keys)
        matched = semi_join_mask(probes, _as_int64(right_keys)[1])
        if left_rows is None:
            return matched
        mask = np.zeros(len(left_keys), dtype=np.bool_)
        mask[left_rows] = matched
        return mask
    if _searchable(left_keys, right_keys):
        at = _search(right_keys, *_probes(left_keys), "left")
        np.minimum(at, len(right_keys) - 1, out=at)
        return right_keys[at] == left_keys
    if _probes_searchable(left_keys, right_keys):
        mask = np.zeros(len(left_keys), dtype=np.bool_)
        mask[_probe_runs(left_keys, np.unique(right_keys))[0]] = True
        return mask
    window = _probe_window(left_keys, right_keys)
    if window is None:
        return np.isin(left_keys, right_keys)
    kmin, span = window
    member = np.zeros(span + 1, dtype=np.bool_)
    member[np.subtract(right_keys, kmin, dtype=np.int64)] = True
    return member[_probe_cells(left_keys, kmin, span)]
