"""Multi-key sorting with per-key direction, string-aware."""

from __future__ import annotations

import numpy as np

from repro.sqlir.expr import Kind, TypedArray

# Integer cells spanning at most this many values sort by 16-bit radix
# passes (three at most) instead of by comparison.
RADIX_CELLS = 1 << 48
# Cells the ascending test samples before it reads them all.
_ASCENDING_SAMPLE = 64


def _orderable(arr: TypedArray) -> np.ndarray:
    """An integer array whose ascending order equals the logical order."""
    if arr.kind is Kind.STR:
        if arr.heap is None:
            raise ValueError("string sort key lost its heap")
        # Rank heap codes by their string value; map codes through ranks.
        uniques = arr.heap.string_array()
        rank_of_code = np.argsort(np.argsort(uniques, kind="stable"))
        return rank_of_code[arr.values].astype(np.int64, copy=False)
    if arr.kind is Kind.FLOAT:
        # IEEE-754 total order: negatives flip all bits, positives are
        # already ordered; expressed in signed space.
        bits = arr.values.astype(np.float64, copy=False).view(np.int64)
        unsigned = bits.view(np.uint64)
        flipped = (~unsigned) ^ np.uint64(1 << 63)
        return np.where(bits < 0, flipped.view(np.int64), bits)
    return arr.values.astype(np.int64, copy=False)


def stable_order(cells: np.ndarray, span: int) -> np.ndarray:
    """Stable ascending order of integer ``cells`` in ``[0, span)``.

    NumPy's stable sort is a linear radix sort on 16-bit keys, so cells
    sort one 16-bit digit per pass, least significant first — up to
    :data:`RADIX_CELLS`.  Cells already in order (a key column stored
    sorted, and what is selected or joined from it in row order) are
    the identity; nearly ordered ones (see :func:`_blocks_in_order`)
    and wider spans take the comparison sort, which is a run-merging
    sort.  Every route gives the same permutation.
    """
    if is_ascending(cells):
        return np.arange(len(cells), dtype=np.int64)
    if span > RADIX_CELLS or _blocks_in_order(cells):
        return np.argsort(cells, kind="stable")
    order = np.argsort((cells & 0xFFFF).astype(np.uint16), kind="stable")
    for shift in range(16, (span - 1).bit_length(), 16):
        digit = ((cells[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def is_ascending(cells: np.ndarray) -> bool:
    """Whether ``cells`` never decrease.  The first and last cell and a
    short strided sample reject most unsorted inputs before the full
    pass reads every cell."""
    if len(cells) < 2:
        return True
    if cells[0] > cells[-1]:
        return False
    sample = cells[:: max(1, len(cells) // _ASCENDING_SAMPLE)]
    if (sample[1:] < sample[:-1]).any():
        return False
    return bool((cells[1:] >= cells[:-1]).all())


def _blocks_in_order(cells: np.ndarray, block: int = 64) -> bool:
    """Whether each 64-cell block ends no higher than the next begins.

    Order broken only within short runs — composite keys over a sorted
    major column, like ``ps_partkey * K + ps_suppkey`` — which the
    run-merging sort mends in near-linear time, faster than the radix
    passes.  A hint only: both sorts give the same permutation.
    """
    n = len(cells) // block * block
    if n < 2 * block:
        return False
    blocks = cells[:n].reshape(-1, block)
    return bool(np.all(blocks.max(axis=1)[:-1] <= blocks.min(axis=1)[1:]))


def multi_key_order(
    keys: list[tuple[TypedArray, bool]],
) -> np.ndarray:
    """Stable row order for (column, ascending) sort keys, major first.

    >>> import numpy as np
    >>> a = TypedArray(np.array([2, 1, 2]))
    >>> b = TypedArray(np.array([5, 9, 1]))
    >>> multi_key_order([(a, True), (b, False)]).tolist()
    [1, 0, 2]
    """
    if not keys:
        raise ValueError("need at least one sort key")
    columns = []
    for arr, ascending in keys:
        ordered = _orderable(arr)
        columns.append(ordered if ascending else -ordered)
    # lexsort sorts by the *last* key as primary; we list minor-to-major.
    return np.lexsort(tuple(reversed(columns)))
