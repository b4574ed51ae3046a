"""On-flash layout of column files.

AQUOMAN reads tables as *Row Vectors* — 32 consecutive column values —
fetched from 8 KB flash pages.  The layout maps every column file to a
contiguous extent of physical pages so that both the host I/O path and
the Table Reader can translate (table, column, row-vector id) into the
physical page ids they must request from the flash controller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.util.units import KB

PAGE_BYTES = 8 * KB
ROW_VECTOR_SIZE = 32


@dataclass(frozen=True)
class ColumnExtent:
    """The physical pages occupied by one column file."""

    table: str
    column: str
    first_page: int
    n_pages: int
    value_width: int
    nrows: int

    @property
    def last_page(self) -> int:
        return self.first_page + self.n_pages - 1

    def rows_per_page(self) -> int:
        return PAGE_BYTES // self.value_width

    def pages_for_rows(self, first_row: int, n_rows: int) -> range:
        """Physical page ids covering rows [first_row, first_row + n_rows)."""
        if n_rows <= 0:
            return range(0)
        per_page = self.rows_per_page()
        lo = first_row // per_page
        hi = (first_row + n_rows - 1) // per_page
        return range(self.first_page + lo, self.first_page + hi + 1)

    def touched_pages(
        self, rowids: np.ndarray, first_row: int = 0,
        n_rows: int | None = None,
    ) -> np.ndarray:
        """One flag per page of the row window: does a row id land on it?

        This is the Table Reader's page-skip question (Sec. VI-B) for a
        selection given as row ids — unsorted and repeated ids are fine.
        The window is rows ``[first_row, first_row + n_rows)``, the
        whole column by default; flag ``i`` stands for extent-local page
        ``first_row // rows_per_page + i``.  A row id outside the window
        is an ``IndexError``.  Cost is linear in ``len(rowids)``: one
        scatter, no sort and no per-row temporary.  (A selection known
        never to descend — every morsel span's, a device mask's — is
        answered per page instead, by :func:`selection_pages`.)
        """
        per_page = self.rows_per_page()
        stop = self.nrows if n_rows is None else first_row + n_rows
        first_local = first_row // per_page
        flags = np.zeros(-(-stop // per_page) - first_local, dtype=np.bool_)
        if len(rowids):
            if rowids.min() < first_row or rowids.max() >= stop:
                raise IndexError("bit index out of range")
            pages = rowids // per_page
            if first_local:
                pages -= first_local
            flags[pages] = True
        return flags

    def page_for_row_vector(self, row_vector_id: int) -> int:
        """Physical page holding the given 32-row vector's first value."""
        per_page = self.rows_per_page()
        return self.first_page + (row_vector_id * ROW_VECTOR_SIZE) // per_page


def selection_pages(
    rowids: np.ndarray, lo: int, hi: int, per_page: int
) -> np.ndarray:
    """One flag per page of rows ``[lo, hi)``: does a selected row land on it?

    The Table Reader's page-skip question for a selection whose row ids
    never decrease (repeats are fine): the page boundaries are
    binary-searched in the row ids, O(pages · log rows), and the window
    check is the first and the last id.
    :meth:`ColumnExtent.touched_pages` is the general answer (unsorted
    ids) and scatters per row; the two agree on every non-decreasing
    selection.
    """
    if len(rowids) and (rowids[0] < lo or rowids[-1] >= hi):
        raise IndexError("bit index out of range")
    bounds = np.arange(lo // per_page, -(-hi // per_page) + 1) * per_page
    at = np.searchsorted(rowids, bounds)
    return at[1:] > at[:-1]


class FlashLayout:
    """Assignment of every column file in a catalog to flash pages."""

    def __init__(self, catalog: Catalog):
        self._extents: dict[tuple[str, str], ColumnExtent] = {}
        next_page = 0
        for table_name in catalog.table_names():
            table = catalog.table(table_name)
            for col in table.columns:
                n_pages = max(1, -(-col.nbytes // PAGE_BYTES))
                extent = ColumnExtent(
                    table=table_name,
                    column=col.name,
                    first_page=next_page,
                    n_pages=n_pages,
                    value_width=col.ctype.width,
                    nrows=col.nrows,
                )
                self._extents[(table_name, col.name)] = extent
                next_page += n_pages
        self.total_pages = next_page

    def extent(self, table: str, column: str) -> ColumnExtent:
        try:
            return self._extents[(table, column)]
        except KeyError:
            raise KeyError(f"no extent for {table}.{column}") from None

    def extents(self) -> list[ColumnExtent]:
        return list(self._extents.values())

    def table_pages(self, table: Table) -> int:
        """Total pages occupied by a table's column files."""
        return sum(
            self._extents[(table.name, c.name)].n_pages for c in table.columns
        )

    @property
    def total_bytes(self) -> int:
        return self.total_pages * PAGE_BYTES

    def __repr__(self) -> str:
        return f"FlashLayout(pages={self.total_pages})"
