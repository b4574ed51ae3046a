"""Database catalog: tables, keys, and materialised join indices.

MonetDB internally represents primary keys as RowIDs and, for every
foreign-key column, materialises an additional column of RowIDs referring
to the referenced table's rows (Sec. VI-D).  AQUOMAN exploits these join
indices to avoid loading join keys into its DRAM when the primary-key
side of a join is unfiltered.

The catalog builds those ``<column>@rowid`` join-index columns at load
time, exactly as MonetDB does, as int32 row ids: a referenced table
must hold fewer than 2**31 rows (at SF 1000 the largest, ``orders``,
holds 1.5e9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.storage.column import Column
from repro.storage.table import Table
from repro.storage.types import INT64


JOIN_INDEX_SUFFIX = "@rowid"
# Kind INT64 (row ids), stored at 4 bytes.
ROWID = INT64.stored_as("int32")


def join_index_name(fk_column: str) -> str:
    """Name of the materialised join-index column for a foreign key."""
    return fk_column + JOIN_INDEX_SUFFIX


@dataclass(frozen=True)
class ForeignKey:
    """A declared foreign-key edge between two tables."""

    table: str
    column: str
    ref_table: str
    ref_column: str

    def __repr__(self) -> str:
        return (
            f"ForeignKey({self.table}.{self.column} -> "
            f"{self.ref_table}.{self.ref_column})"
        )


@dataclass
class Catalog:
    """A named set of tables plus key metadata."""

    tables: dict[str, Table] = field(default_factory=dict)
    primary_keys: dict[str, str] = field(default_factory=dict)
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    # Provenance for synthetic datasets (set by dbgen; drives trace scaling).
    scale_factor: float = 1.0
    seed: int = 0
    # Tables whose cardinality does not grow with the scale factor
    # (their string heaps never outgrow caches when simulating scale).
    constant_tables: set[str] = field(default_factory=set)

    # -- construction -----------------------------------------------------------

    def add_table(self, table: Table, primary_key: str | None = None) -> None:
        if table.name in self.tables:
            raise ValueError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table
        if primary_key is not None:
            if not table.has_column(primary_key):
                raise KeyError(
                    f"primary key {primary_key!r} not in table {table.name!r}"
                )
            self.primary_keys[table.name] = primary_key

    def add_foreign_key(self, fk: ForeignKey) -> None:
        """Declare a FK edge and materialise its join-index column."""
        referencing = self.table(fk.table)
        referenced = self.table(fk.ref_table)
        if referenced.nrows > np.iinfo(ROWID.dtype).max:
            raise ValueError(
                f"{fk.ref_table} holds {referenced.nrows} rows; its "
                f"join index takes row ids below 2**31"
            )
        pk_values = referenced.column(fk.ref_column).values
        fk_values = referencing.column(fk.column).values
        rowids = _build_join_index(fk_values, pk_values)
        index_col = Column(join_index_name(fk.column), ROWID, rowids)
        self.tables[fk.table] = referencing.with_column(index_col)
        self.foreign_keys.append(fk)

    # -- access ------------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(
                f"no table {name!r}; catalog has {sorted(self.tables)}"
            ) from None

    def table_names(self) -> list[str]:
        return sorted(self.tables)

    def primary_key(self, table: str) -> str | None:
        return self.primary_keys.get(table)

    def foreign_key_for(self, table: str, column: str) -> ForeignKey | None:
        for fk in self.foreign_keys:
            if fk.table == table and fk.column == column:
                return fk
        return None

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self.tables.values())

    def __repr__(self) -> str:
        return f"Catalog(tables={self.table_names()})"


def _build_join_index(
    fk_values: np.ndarray, pk_values: np.ndarray
) -> np.ndarray:
    """RowID in the referenced table for each foreign-key value.

    Raises if any FK value has no matching primary key (referential
    integrity is a TPC-H invariant we rely on downstream).
    """
    order = np.argsort(pk_values, kind="stable")
    sorted_pk = pk_values[order]
    pos = np.searchsorted(sorted_pk, fk_values)
    pos = np.clip(pos, 0, len(sorted_pk) - 1)
    matched = sorted_pk[pos] == fk_values
    if not matched.all():
        missing = np.asarray(fk_values)[~matched][:5]
        raise ValueError(f"dangling foreign keys, e.g. {missing.tolist()}")
    return order[pos]
