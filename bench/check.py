"""Result digests: what the benchmark compares instead of whole tables.

A digest is small enough to commit (``expected/*.json``) and to ship
from the prepare process to the measuring one, and strict enough that
a wrong row, a reordered row or a renamed column changes it: column
names, row count, one SHA-256 over every exactly-representable column
(integers, decimals, dates, booleans, strings — decoded to logical
values, so a narrower physical encoding does not move it), and for
float columns a plain and a position-weighted sum compared at 1e-9
relative (float results are sums of products whose last digits may
legitimately differ between evaluation orders).
"""

from __future__ import annotations

import hashlib
import math

from repro.storage.types import TypeKind

FLOAT_REL_TOL = 1e-9


def digest(table) -> dict:
    """Digest of a ``repro.storage.table.Table``."""
    exact = hashlib.sha256()
    floats: dict[str, list[float]] = {}
    for column in table.columns:
        values = column.logical()
        if column.ctype.kind is TypeKind.FLOAT:
            floats[column.name] = [
                math.fsum(values),
                math.fsum(i * v for i, v in enumerate(values, 1)),
            ]
            continue
        exact.update(column.name.encode() + b"\x1e")
        exact.update("\x1f".join(map(str, values)).encode())
    return {
        "columns": list(table.column_names),
        "rows": table.nrows,
        "exact": exact.hexdigest(),
        "floats": floats,
    }


def mismatch(got: dict, want: dict) -> str | None:
    """Why two digests differ, or None when they agree."""
    for key in ("columns", "rows", "exact"):
        if got[key] != want[key]:
            return f"{key}: got {got[key]!r}, want {want[key]!r}"
    if sorted(got["floats"]) != sorted(want["floats"]):
        return "float columns differ"
    for name, sums in got["floats"].items():
        for mine, theirs in zip(sums, want["floats"][name], strict=True):
            if not math.isclose(
                mine, theirs, rel_tol=FLOAT_REL_TOL, abs_tol=1e-12
            ):
                return f"float column {name}: got {mine!r}, want {theirs!r}"
    return None
