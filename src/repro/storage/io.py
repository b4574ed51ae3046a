"""On-disk persistence: the column-file format AQUOMAN reads.

MonetDB stores each column as its own file plus a string-heap file for
variable-width columns (Sec. IV: "a relational table is stored as a
collection of column files").  This module writes a catalog out in that
shape — one raw binary file per column, one NUL-separated heap file per
string column, one JSON manifest for schema/keys — and loads it back.

Round-tripping through disk is exact: values, heaps, key metadata and
the materialised FK join indices all survive.  Loading is O(columns): a
heap stays its file's bytes (:meth:`StringHeap.from_stored`) until a
query reads its strings, so no Python call is made per string.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.obs import METRICS, get_tracer
from repro.storage.catalog import Catalog, ForeignKey
from repro.storage.column import Column
from repro.storage.stringheap import StringHeap
from repro.storage.table import Table
from repro.storage.types import DEFAULT_TYPES, ColumnType, TypeKind

MANIFEST_NAME = "catalog.json"


def _load_column_values(
    path: Path, dtype: np.dtype, mmap: bool, label: str
) -> np.ndarray:
    """Load one column file without a redundant copy.

    The on-disk size is validated against the dtype before mapping:
    a file that is not a whole number of values (a partial trailing
    value, or a file of another width) raises, and the caller checks
    the value count against the manifest — np.memmap of a short file
    would otherwise fail with an unrelated message, and both loaders
    silently round a partial value down.
    """
    itemsize = np.dtype(dtype).itemsize
    size = path.stat().st_size
    if size % itemsize:
        raise ValueError(
            f"{label}: file holds {size} bytes, not a whole number of "
            f"{itemsize}-byte values"
        )
    nvalues = size // itemsize
    if nvalues == 0:
        return np.empty(0, dtype=dtype)
    if mmap:
        return np.memmap(path, dtype=dtype, mode="r", shape=(nvalues,))
    return np.fromfile(path, dtype=dtype)


def _load_heap(path: Path, count: int | None, label: str) -> StringHeap:
    """A string column's heap, left in its stored form.

    ``count`` is the manifest's ``heap_strings``; the file must hold
    that many strings (its NUL count plus one, or none for an empty
    file of a 0-string heap).  A manifest written without the field
    takes the file's own count.
    """
    payload = path.read_bytes()
    held = 0
    if payload or count:
        # One vectorised pass; ``bytes.count`` is several times slower.
        nonzero = np.count_nonzero(np.frombuffer(payload, dtype=np.uint8))
        held = len(payload) - nonzero + 1
    if count is None:
        count = held
    if held != count:
        raise ValueError(
            f"{label}: heap file holds {held} strings, manifest says {count}"
        )
    return StringHeap.from_stored(payload, count, label)


def _column_type(meta: dict, label: str) -> ColumnType:
    """The manifest entry's kind at its stored ``dtype``; an entry
    written without one is at the kind's default width."""
    ctype = DEFAULT_TYPES[TypeKind(meta["type"])]
    if "dtype" not in meta:
        return ctype
    try:
        return ctype.stored_as(meta["dtype"])
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{label}: bad dtype {meta['dtype']!r}: {exc}"
        ) from None


def save_catalog(catalog: Catalog, directory: str | Path) -> Path:
    """Write every column file, heap file and the manifest.

    Returns the manifest path.  Layout::

        <dir>/catalog.json
        <dir>/<table>/<column>.bin       raw values, native dtype
        <dir>/<table>/<column>.heap      NUL-separated unique strings

    Each column's manifest entry records its kind as ``type`` and its
    stored NumPy dtype as ``dtype``; a string column's also records its
    heap's string count as ``heap_strings``.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)

    tracer = get_tracer()
    bytes_written = 0
    manifest: dict = {
        "scale_factor": catalog.scale_factor,
        "seed": catalog.seed,
        "constant_tables": sorted(catalog.constant_tables),
        "primary_keys": dict(catalog.primary_keys),
        "foreign_keys": [
            [fk.table, fk.column, fk.ref_table, fk.ref_column]
            for fk in catalog.foreign_keys
        ],
        "tables": {},
    }

    for table_name in catalog.table_names():
        table = catalog.table(table_name)
        table_dir = root / table_name
        table_dir.mkdir(exist_ok=True)
        columns_meta = []
        with tracer.span("io.save_table", table=table_name):
            for column in table.columns:
                raw = np.ascontiguousarray(column.values).tobytes()
                (table_dir / f"{column.name}.bin").write_bytes(raw)
                bytes_written += len(raw)
                meta = {
                    "name": column.name,
                    "type": column.ctype.kind.value,
                    "dtype": column.ctype.dtype.name,
                    "nrows": column.nrows,
                }
                if column.heap is not None:
                    payload, meta["heap_strings"] = column.heap.stored()
                    (table_dir / f"{column.name}.heap").write_bytes(payload)
                    bytes_written += len(payload)
                columns_meta.append(meta)
        manifest["tables"][table_name] = columns_meta

    METRICS.counter("io.bytes_written").inc(bytes_written)
    manifest_path = root / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return manifest_path


def load_catalog(directory: str | Path, *, mmap: bool = True) -> Catalog:
    """Load a catalog previously written by :func:`save_catalog`.

    With ``mmap=True`` (the default) column files are mapped read-only
    with :func:`np.memmap`, so loading is O(#columns) and a column page
    is only faulted in when something actually reads it — this is what
    lets the morsel executor's page-skip path avoid ever touching
    fully-masked pages.  ``mmap=False`` reads each file eagerly with
    one :func:`np.fromfile` copy (no intermediate ``bytes`` object).

    Foreign keys are restored from the manifest; their join-index
    columns were persisted like any other column, so they are *not*
    recomputed (add_foreign_key would duplicate them) — the manifest's
    edge list is attached directly.
    """
    root = Path(directory)
    manifest = json.loads((root / MANIFEST_NAME).read_text())

    tracer = get_tracer()
    bytes_mapped = 0
    catalog = Catalog()
    catalog.scale_factor = manifest["scale_factor"]
    catalog.seed = manifest["seed"]
    catalog.constant_tables = set(manifest["constant_tables"])

    for table_name, columns_meta in manifest["tables"].items():
        table_dir = root / table_name
        columns = []
        with tracer.span("io.load_table", table=table_name, mmap=mmap):
            for meta in columns_meta:
                label = f"{table_name}.{meta['name']}"
                ctype = _column_type(meta, label)
                raw = _load_column_values(
                    table_dir / f"{meta['name']}.bin", ctype.dtype, mmap,
                    label,
                )
                if len(raw) != meta["nrows"]:
                    raise ValueError(
                        f"{label}: file holds {len(raw)} values, "
                        f"manifest says {meta['nrows']}"
                    )
                bytes_mapped += raw.nbytes
                heap = None
                if ctype.is_string:
                    heap = _load_heap(
                        table_dir / f"{meta['name']}.heap",
                        meta.get("heap_strings"),
                        label,
                    )
                column = Column(meta["name"], ctype, raw, heap)
                if mmap:
                    column.source_path = table_dir / f"{meta['name']}.bin"
                columns.append(column)
        primary_key = manifest["primary_keys"].get(table_name)
        catalog.add_table(Table(table_name, columns), primary_key)

    METRICS.counter("io.bytes_loaded").inc(bytes_mapped)

    for table, column, ref_table, ref_column in manifest["foreign_keys"]:
        catalog.foreign_keys.append(
            ForeignKey(table, column, ref_table, ref_column)
        )
    return catalog


def reopen_mapped_columns(catalog: Catalog) -> int:
    """Re-open every disk-backed column mapping by path, in place.

    A forked process-pool worker inherits the parent's memmaps; the
    pages are already shared through the OS page cache, but the file
    descriptors behind them belong to the parent.  Re-mapping by
    ``source_path`` gives the worker its own descriptors over the same
    cached pages — still zero-copy, no pickled column data.  Columns
    without a recorded path (in-memory catalogs, derived columns) are
    left untouched.  Returns the number of columns re-opened.
    """
    reopened = 0
    for table_name in catalog.table_names():
        for column in catalog.table(table_name).columns:
            path = column.source_path
            if path is None or not column.is_mapped:
                continue
            column.values = np.asarray(
                np.memmap(
                    path,
                    dtype=column.ctype.dtype,
                    mode="r",
                    shape=(column.nrows,),
                )
            )
            reopened += 1
    return reopened
