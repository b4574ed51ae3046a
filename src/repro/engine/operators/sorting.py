"""Multi-key sorting with per-key direction, string-aware."""

from __future__ import annotations

import numpy as np

from repro.sqlir.expr import Kind, TypedArray


def _orderable(arr: TypedArray) -> np.ndarray:
    """An integer array whose ascending order equals the logical order."""
    if arr.kind is Kind.STR:
        if arr.heap is None:
            raise ValueError("string sort key lost its heap")
        # Rank heap codes by their string value; map codes through ranks.
        uniques = np.array(arr.heap.strings())
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
