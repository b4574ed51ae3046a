"""Regular-expression accelerator (Sec. VI-B).

Sits inside the Table Reader and pre-processes a variable-sized string
column into a one-bit column.  Its 1 MB memory holds the column's
string heap; when the heap fits, the heap is matched once, at line
rate, and row evaluation is a code lookup.  When the heap does not
fit, random reads to the flash-resident heap would destroy the
streaming model — the query suspends to the host (condition 2 of
Sec. VI-E).

The host half of the match is :meth:`StringHeap.verdicts`: one scan
of the heap's stored bytes per LIKE pattern, kept on the heap.
:meth:`RegexAccelerator.match_like` hands it the LIKE text, so the
device and the host engine share one verdict table per (heap,
pattern).

Equality and IN predicates on strings use the same path (they are
single-pattern specials of the matcher).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.stringheap import StringHeap
from repro.util.units import MB

REGEX_CACHE_BYTES = 1 * MB


class HeapTooLarge(Exception):
    """The column's string heap exceeds the accelerator's 1 MB cache."""


def effective_heap_bytes(
    heap, base_rows: int, scale_ratio: float, constant: bool = False
) -> int:
    """Heap size at the simulated scale factor.

    Constant tables (nation, region) never grow.  Elsewhere,
    enumerated domains (ship modes, brands, part types...) have heaps
    that do not grow with SF while free-text heaps grow linearly; the
    signature of a fixed domain is a distinct count far below the
    column's row count (and absolutely small).
    """
    if constant:
        return heap.heap_bytes
    fixed_domain = heap.unique_count <= min(1024, max(1, base_rows // 10))
    if fixed_domain:
        return heap.heap_bytes
    return int(heap.heap_bytes * scale_ratio)


@dataclass
class RegexAccelerator:
    """Matches patterns against a heap-resident string column."""

    cache_bytes: int = REGEX_CACHE_BYTES
    unique_matches: int = 0
    rows_evaluated: int = 0
    patterns_compiled: int = 0

    def check_heap(self, heap: StringHeap, effective_heap_bytes: int | None = None):
        """Raise :class:`HeapTooLarge` unless the heap fits the cache.

        ``effective_heap_bytes`` lets the trace-scaling machinery
        substitute the heap size at the simulated scale factor.
        """
        size = (
            effective_heap_bytes
            if effective_heap_bytes is not None
            else heap.heap_bytes
        )
        if size > self.cache_bytes:
            raise HeapTooLarge(
                f"string heap of {size} bytes exceeds the "
                f"{self.cache_bytes}-byte accelerator cache"
            )

    def match_like(
        self,
        codes: np.ndarray,
        heap: StringHeap,
        pattern: str,
        negated: bool = False,
        effective_heap_bytes: int | None = None,
    ) -> np.ndarray:
        """Evaluate a SQL LIKE pattern into a one-bit column."""
        self.check_heap(heap, effective_heap_bytes)
        # The meters count the modelled accelerator, which matches the
        # cached heap anew for every pattern it is handed — not what the
        # heap's verdict memo saved this process.
        self.patterns_compiled += 1
        self.unique_matches += heap.unique_count
        self.rows_evaluated += len(codes)
        mask = heap.verdicts(pattern)[codes]
        return ~mask if negated else mask

    def match_equals(
        self,
        codes: np.ndarray,
        heap: StringHeap,
        value: str,
        negated: bool = False,
        effective_heap_bytes: int | None = None,
    ) -> np.ndarray:
        """String equality as a degenerate single-string pattern."""
        self.check_heap(heap, effective_heap_bytes)
        code = heap.lookup(value)
        self.rows_evaluated += len(codes)
        if code is None:
            mask = np.zeros(len(codes), dtype=np.bool_)
        else:
            mask = codes == code
        return ~mask if negated else mask

    def match_in(
        self,
        codes: np.ndarray,
        heap: StringHeap,
        values: tuple,
        negated: bool = False,
        effective_heap_bytes: int | None = None,
    ) -> np.ndarray:
        self.check_heap(heap, effective_heap_bytes)
        self.rows_evaluated += len(codes)
        mask = heap.members(values)[codes]
        return ~mask if negated else mask
