"""A single column file (MonetDB BAT tail).

A column is a dense, typed array in ascending row order, optionally
backed by a string heap.  Column equality and slicing operate on the raw
integer representation; helpers decode to logical Python values.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.storage.stringheap import StringHeap
from repro.storage.types import (
    CHAR,
    ColumnType,
    TypeKind,
    date_to_days,
    decimal_to_int,
)


class Column:
    """Typed, named column of fixed-width integer values."""

    __slots__ = ("name", "ctype", "values", "heap", "source_path")

    def __init__(
        self,
        name: str,
        ctype: ColumnType,
        values: np.ndarray,
        heap: StringHeap | None = None,
    ):
        if ctype.is_string and heap is None:
            raise ValueError(f"string column {name!r} requires a heap")
        if not ctype.is_string and heap is not None:
            raise ValueError(f"non-string column {name!r} cannot carry a heap")
        values = np.asarray(values)
        if values.dtype != ctype.dtype:
            if values.size and not np.can_cast(values.dtype, ctype.dtype):
                _check_fits(name, values, ctype.dtype)
            values = values.astype(ctype.dtype)
        self.name = name
        self.ctype = ctype
        self.values = values
        self.heap = heap
        # Set by load_catalog on mmap-backed columns: the column file's
        # path, which lets a forked pool worker re-open the mapping in
        # its own process (reopen_mapped_columns).  None for in-memory
        # and derived columns.
        self.source_path = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def strings(
        cls, name: str, values: Iterable[str], ctype: ColumnType = CHAR
    ) -> "Column":
        """Build a CHAR column (codes stored as ``ctype``), interning
        values into a fresh heap."""
        heap, codes = StringHeap.from_values(values)
        return cls(name, ctype, codes, heap)

    @classmethod
    def from_logical(
        cls, name: str, ctype: ColumnType, values: Sequence
    ) -> "Column":
        """Build a column from logical Python values (dates, floats, strs)."""
        if ctype.is_string:
            return cls.strings(name, values)
        if ctype.kind is TypeKind.DECIMAL:
            raw = np.fromiter(
                (decimal_to_int(v) for v in values), dtype=np.int64
            )
        elif ctype.kind is TypeKind.DATE:
            raw = np.fromiter(
                (date_to_days(v) for v in values), dtype=np.int32
            )
        else:
            raw = np.asarray(values, dtype=ctype.dtype)
        return cls(name, ctype, raw)

    # -- views ------------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        """On-flash size of the column file (excluding any string heap)."""
        return self.nrows * self.ctype.width

    @property
    def heap_bytes(self) -> int:
        return self.heap.heap_bytes if self.heap is not None else 0

    @property
    def is_mapped(self) -> bool:
        """True when the values live in an mmap'd column file.

        The constructor's ``np.asarray`` returns a plain-ndarray *view*
        of a memmap (same pages, lazily faulted), so the mapping is
        found by walking the ``base`` chain, not by subclass.
        """
        arr = self.values
        while arr is not None:
            if isinstance(arr, np.memmap):
                return True
            arr = getattr(arr, "base", None)
        return False

    def slice_rows(self, lo: int, hi: int) -> np.ndarray:
        """Raw values for rows ``[lo, hi)`` — a view, never a copy.

        On an mmap-backed column only the pages overlapping the slice
        are faulted in, so a morsel-sized read costs morsel-sized I/O.
        """
        return self.values[lo:hi]

    def take(self, row_ids: np.ndarray) -> "Column":
        """Positional gather: a new column of the given rows, in order."""
        return Column(self.name, self.ctype, self.values[row_ids], self.heap)

    def rename(self, name: str) -> "Column":
        return Column(name, self.ctype, self.values, self.heap)

    def logical(self) -> list:
        """Decode the whole column to logical Python values."""
        if self.ctype.is_string:
            return self.heap.decode_many(self.values)
        return [self.ctype.to_python(v) for v in self.values]

    def logical_value(self, row: int):
        """Decode a single row."""
        if self.ctype.is_string:
            return self.heap.decode(int(self.values[row]))
        return self.ctype.to_python(int(self.values[row]))

    def __len__(self) -> int:
        return self.nrows

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.ctype.kind.value}, nrows={self.nrows})"


def _check_fits(name: str, values: np.ndarray, dtype: np.dtype) -> None:
    """Raise unless every value of ``values`` is representable in the
    integer ``dtype`` — the cast would otherwise wrap it silently."""
    if dtype.kind not in "iu" or values.dtype.kind not in "iuf":
        return
    info = np.iinfo(dtype)
    lo, hi = values.min(), values.max()
    if lo < info.min or hi > info.max:
        raise ValueError(
            f"column {name!r}: values {lo}..{hi} do not fit "
            f"{dtype.name} ({info.min}..{info.max})"
        )
