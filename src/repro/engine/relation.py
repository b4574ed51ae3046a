"""In-flight relations: the engine's column-at-a-time working set.

A :class:`Relation` is an ordered mapping of column name to
:class:`~repro.sqlir.expr.TypedArray` — the vectorised intermediate the
executor threads between operators, and that the AQUOMAN device model
shares so both produce byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sqlir.expr import Kind, TypedArray
from repro.storage.column import Column
from repro.storage.table import Table
from repro.storage.types import BOOL, CHAR, DECIMAL, FLOAT, INT64


@dataclass
class Relation:
    """Ordered named columns, all the same length."""

    columns: dict[str, TypedArray] = field(default_factory=dict)

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
        """Positional row gather across all columns."""
        return Relation(
            {
                name: TypedArray(
                    arr.values[indices], arr.kind, arr.scale, arr.heap
                )
                for name, arr in self.columns.items()
            }
        )

    def mask(self, keep: np.ndarray) -> "Relation":
        """Boolean row filter across all columns: the mask is scanned
        once, every column is an index gather."""
        return self.take(np.flatnonzero(keep))

    def nbytes(self) -> int:
        """Approximate resident bytes of the relation."""
        return sum(arr.values.nbytes for arr in self.columns.values())

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


def typed_array_from_column(
    col: Column, values: np.ndarray | None = None
) -> TypedArray:
    """Lift a storage column into the evaluation domain.

    ``values`` stands in for the whole column when only a slice or a
    gather of it is lifted.  Values already of the evaluation dtype are
    shared, not copied: nothing downstream writes into a
    :class:`TypedArray` in place.
    """
    if values is None:
        values = col.values
    kind, scale = col.ctype.eval_domain
    if kind is Kind.STR:
        return TypedArray(values, kind, scale, col.heap)
    dtype = np.bool_ if kind is Kind.BOOL else np.int64
    return TypedArray(values.astype(dtype, copy=False), kind, scale)


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
