"""In-flight relations: the engine's column-at-a-time working set.

A :class:`Relation` is an ordered mapping of column name to
:class:`~repro.sqlir.expr.TypedArray` — the vectorised intermediate the
executor threads between operators, and that the AQUOMAN device model
shares so both produce byte-identical results.

Selecting rows gathers nothing.  :meth:`Relation.take` hands every
column on as a :class:`SelectedArray` — the array it came from plus the
rows to take — and the gather happens when an operator first reads the
column's ``values``: a column carried through filters and joins is
gathered once, at the rows that survived them all, and a column nobody
reads again is never gathered.  Columns selected together share one
row-index array, so a selection is composed once per input, not once
per column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sqlir.expr import Kind, TypedArray
from repro.storage.column import Column
from repro.storage.stringheap import StringHeap
from repro.storage.table import Table
from repro.storage.types import BOOL, CHAR, DECIMAL, FLOAT, INT64


class SelectedArray(TypedArray):
    """A column not gathered yet: ``source[rows]`` as ``dtype``.

    ``rows`` None stands for every row of ``source``: a stored column
    whose lift into the evaluation dtype also waits for a reader.  Kind,
    scale, heap, length and byte size are known without gathering; the
    first read of ``values`` gathers and keeps the result.  On an
    mmap-backed source the gather faults in only the pages holding the
    selected rows: the physical half of the Table Reader's page skip.
    """

    def __init__(
        self,
        source: np.ndarray,
        rows: np.ndarray | None,
        dtype: np.dtype,
        kind: Kind,
        scale: int = 0,
        heap: StringHeap | None = None,
    ):
        self.source = source
        self.rows = rows
        self.dtype = np.dtype(dtype)
        self.kind = kind
        self.scale = scale
        self.heap = heap
        self._values: np.ndarray | None = None
        self._n = len(source if rows is None else rows)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            raw = self.source if self.rows is None else self.source[self.rows]
            self._values = raw.astype(self.dtype, copy=False)
        return self._values

    @values.setter
    def values(self, values: np.ndarray) -> None:
        # A TypedArray's values are assignable; assigned, they are the
        # column and its whole source: nothing is left to gather.
        self._values = self.source = np.asarray(values)
        self.rows, self.dtype = None, self._values.dtype
        self._n = len(self._values)

    def stored(self) -> np.ndarray:
        """The source itself while nothing selects or widens it yet."""
        if self._values is None and self.rows is None:
            return self.source
        return self.values

    @property
    def gathered(self) -> bool:
        return self._values is not None

    def __len__(self) -> int:
        return self._n

    @property
    def nbytes(self) -> int:
        return self._n * self.dtype.itemsize


def select_rows(
    arr: TypedArray,
    indices: np.ndarray,
    composed: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> SelectedArray:
    """``arr`` at ``indices``, without gathering.

    A selection — pending, or gathered by a reader — composes its rows
    with ``indices``, so the result still selects from the stored
    column at its stored width: a key that an expression read (and
    widened) first reaches a later join or grouping as stored.  Any
    other column is selected from its values.  ``composed`` remembers
    each composition as ``(rows, rows[indices])`` so that columns
    sharing a row array share the composed one too.
    """
    if isinstance(arr, SelectedArray):
        rows = arr.rows
        if rows is None:
            rows = indices
        else:
            composed = [] if composed is None else composed
            for seen, out in composed:
                if seen is rows:
                    rows = out
                    break
            else:
                out = rows[indices]
                composed.append((rows, out))
                rows = out
        return SelectedArray(
            arr.source, rows, arr.dtype, arr.kind, arr.scale, arr.heap
        )
    values = arr.values
    return SelectedArray(
        values, indices, values.dtype, arr.kind, arr.scale, arr.heap
    )


def key_values(arr: TypedArray) -> np.ndarray:
    """``arr``'s values at the width they are stored in: a pending
    selection is gathered at its source's width and not widened, nor
    kept, so ``arr`` stays pending for later selections (unlike
    :meth:`SelectedArray.stored`, which gathers a selection at the
    evaluation width and keeps it).  What the join and grouping
    kernels read: they subtract into int64 themselves."""
    if isinstance(arr, SelectedArray) and not arr.gathered:
        return arr.source if arr.rows is None else arr.source[arr.rows]
    return arr.values


@dataclass
class Relation:
    """Ordered named columns, all the same length.

    Operators build a new relation rather than edit one's columns, so
    its byte size is worked out once.
    """

    columns: dict[str, TypedArray] = field(default_factory=dict)
    _nbytes: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def nrows(self) -> int:
        for arr in self.columns.values():
            return len(arr)
        return 0

    @property
    def names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> TypedArray:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"relation has no column {name!r}; has {self.names}"
            ) from None

    def take(self, indices: np.ndarray) -> "Relation":
        """The rows at ``indices``, in that order; nothing is gathered
        until a column is read."""
        composed: list[tuple[np.ndarray, np.ndarray]] = []
        return Relation({
            name: select_rows(arr, indices, composed)
            for name, arr in self.columns.items()
        })

    def mask(self, keep: np.ndarray) -> "Relation":
        """Boolean row filter: the mask is scanned once, into the row
        indices every column is selected at."""
        return self.take(np.flatnonzero(keep))

    def nbytes(self) -> int:
        """Resident bytes of the relation once every column is gathered."""
        if self._nbytes is None:
            self._nbytes = sum(arr.nbytes for arr in self.columns.values())
        return self._nbytes

    @classmethod
    def concat(cls, parts: list["Relation"]) -> "Relation":
        """The rows of ``parts`` one after another (same column names).

        A column that every part still selects from one source stays a
        selection of it, at the parts' rows end to end — so a column
        streamed span by span is gathered once, and only if it is read.
        Columns whose rows come from the same selections share one
        concatenated row array.
        """
        columns: dict[str, TypedArray] = {}
        joined: list[tuple[list[np.ndarray], np.ndarray]] = []
        for name in parts[0].names:
            arrays = [p.column(name) for p in parts]
            pending = _pending_rows(arrays)
            if pending is None:
                proto = arrays[0]
                columns[name] = TypedArray(
                    np.concatenate([a.values for a in arrays]),
                    proto.kind, proto.scale, proto.heap,
                )
                continue
            first, rows = pending
            for seen, out in joined:
                if all(s is r for s, r in zip(seen, rows)):
                    break
            else:
                out = np.concatenate(rows)
                joined.append((rows, out))
            columns[name] = SelectedArray(
                first.source, out, first.dtype, first.kind, first.scale,
                first.heap,
            )
        return cls(columns)

    @classmethod
    def from_table(cls, table: Table) -> "Relation":
        columns: dict[str, TypedArray] = {}
        for col in table.columns:
            columns[col.name] = typed_array_from_column(col)
        return cls(columns)

    def to_table(self, name: str = "result") -> Table:
        """Decode into a storage Table (fixed-point scales >0 → float)."""
        out: list[Column] = []
        for cname, arr in self.columns.items():
            out.append(_column_from_typed(cname, arr))
        if not out:
            raise ValueError("cannot build a table from an empty relation")
        return Table(name, out)


def _pending_rows(
    arrays: list[TypedArray],
) -> tuple[SelectedArray, list[np.ndarray]] | None:
    """The first array and every array's rows, when all of them are
    pending selections of one source; None otherwise."""
    first = arrays[0]
    if not isinstance(first, SelectedArray):
        return None
    rows: list[np.ndarray] = []
    for arr in arrays:
        if (
            not isinstance(arr, SelectedArray) or arr.gathered
            or arr.rows is None or arr.source is not first.source
        ):
            return None
        rows.append(arr.rows)
    return first, rows


def typed_array_from_column(
    col: Column, values: np.ndarray | None = None
) -> TypedArray:
    """Lift a storage column into the evaluation domain.

    ``values`` stands in for the whole column when only a slice or a
    gather of it is lifted.  Values already of the evaluation dtype are
    shared, not copied: nothing downstream writes into a
    :class:`TypedArray` in place.  Narrower values are widened when an
    operator first reads them, and only at the rows it reads.
    """
    if values is None:
        values = col.values
    kind, scale = col.ctype.eval_domain
    if kind is Kind.STR:
        return TypedArray(values, kind, scale, col.heap)
    dtype = np.dtype(np.bool_ if kind is Kind.BOOL else np.int64)
    if values.dtype == dtype:
        return TypedArray(values, kind, scale)
    return SelectedArray(values, None, dtype, kind, scale)


def _column_from_typed(name: str, arr: TypedArray) -> Column:
    if arr.kind is Kind.STR:
        if arr.heap is None:
            raise ValueError(f"string column {name!r} lost its heap")
        return Column(name, CHAR, arr.values.astype(np.int32), arr.heap)
    if arr.kind is Kind.BOOL:
        return Column(name, BOOL, arr.values.astype(np.int8))
    if arr.kind is Kind.FLOAT:
        return Column(name, FLOAT, arr.values.astype(np.float64))
    if arr.scale == 0:
        return Column(name, INT64, arr.values.astype(np.int64))
    if arr.scale == 2:
        return Column(name, DECIMAL, arr.values.astype(np.int64))
    # Higher scales (products of decimals) decode to float for output.
    return Column(
        name, FLOAT, arr.values.astype(np.float64) / (10**arr.scale)
    )
