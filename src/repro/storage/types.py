"""Column type system.

AQUOMAN's datapath is integer-only (Table II's PE ISA has no float ops),
so every SQL type is represented as a fixed-width integer:

- ``INT32`` / ``INT64`` — plain integers.
- ``DECIMAL`` — fixed-point with two fractional digits, stored as int64
  hundredths (TPC-H prices/discounts/taxes are all decimal(15,2)).
- ``DATE`` — int32 days since 1970-01-01.
- ``CHAR`` — a 32-bit code into a per-column string heap.
- ``BOOL`` — a 1-byte flag column (the output of the regex accelerator).

Those are the default widths.  A column whose values have a bounded
domain may be stored narrower (:meth:`ColumnType.stored_as`): same kind,
a smaller signed integer dtype.  It enters the evaluation domain by the
same rule (:attr:`ColumnType.eval_domain`), so only its stored bytes
change.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property

import numpy as np

DECIMAL_SCALE = 100
_EPOCH = _dt.date(1970, 1, 1)


class TypeKind(Enum):
    """The physical interpretation of a column's integer payload."""

    INT32 = "int32"
    INT64 = "int64"
    DECIMAL = "decimal"
    DATE = "date"
    CHAR = "char"
    BOOL = "bool"
    FLOAT = "float"  # result-only: post-division values; never on flash


class Kind(Enum):
    """Logical kind of an evaluated expression."""

    INT = "int"      # fixed-point integer with a decimal scale
    FLOAT = "float"  # post-division / post-average values
    STR = "str"      # heap codes
    BOOL = "bool"


@dataclass(frozen=True)
class ColumnType:
    """A column's logical kind plus its physical width and NumPy dtype."""

    kind: TypeKind
    width: int
    dtype: np.dtype

    def __repr__(self) -> str:
        return f"ColumnType({self.kind.value})"

    @property
    def is_string(self) -> bool:
        return self.kind is TypeKind.CHAR

    @cached_property
    def eval_domain(self) -> tuple[Kind, int]:
        """How a stored column enters the evaluation domain: its
        :class:`Kind` and fixed-point scale.  The one statement of the
        rule — the engine lifts values by it, the type checker types
        scans by it, both Row Selectors scale their constants by it."""
        if self.kind is TypeKind.CHAR:
            return Kind.STR, 0  # codes; the column's heap travels along
        if self.kind is TypeKind.DECIMAL:
            return Kind.INT, 2
        if self.kind is TypeKind.BOOL:
            return Kind.BOOL, 0
        return Kind.INT, 0

    def stored_as(self, dtype) -> "ColumnType":
        """This kind stored at ``dtype``: a signed integer no wider than
        the kind's default width (BOOL and FLOAT only at their own).
        One instance per (kind, dtype), so loading a catalog builds no
        type per column."""
        return _stored_as(self.kind, np.dtype(dtype))

    def to_python(self, raw):
        """Decode one raw value into its logical Python value."""
        if self.kind is TypeKind.DECIMAL:
            return int_to_decimal(raw)
        if self.kind is TypeKind.DATE:
            return days_to_date(raw)
        if self.kind is TypeKind.BOOL:
            return bool(raw)
        if self.kind is TypeKind.FLOAT:
            return float(raw)
        return int(raw)


INT32 = ColumnType(TypeKind.INT32, 4, np.dtype(np.int32))
FLOAT = ColumnType(TypeKind.FLOAT, 8, np.dtype(np.float64))
INT64 = ColumnType(TypeKind.INT64, 8, np.dtype(np.int64))
DECIMAL = ColumnType(TypeKind.DECIMAL, 8, np.dtype(np.int64))
DATE = ColumnType(TypeKind.DATE, 4, np.dtype(np.int32))
CHAR = ColumnType(TypeKind.CHAR, 4, np.dtype(np.int32))
BOOL = ColumnType(TypeKind.BOOL, 1, np.dtype(np.int8))

# Each kind at its default width.
DEFAULT_TYPES: dict[TypeKind, ColumnType] = {
    t.kind: t for t in (INT32, FLOAT, INT64, DECIMAL, DATE, CHAR, BOOL)
}


@cache
def _stored_as(kind: TypeKind, dtype: np.dtype) -> ColumnType:
    default = DEFAULT_TYPES[kind]
    if dtype == default.dtype:
        return default
    if (
        kind in (TypeKind.BOOL, TypeKind.FLOAT)
        or dtype.kind != "i" or dtype.itemsize > default.width
    ):
        raise ValueError(f"{kind.value} cannot be stored as {dtype.name}")
    return ColumnType(kind, dtype.itemsize, dtype)


def decimal_to_int(value: float | str) -> int:
    """Encode a decimal number as int64 hundredths.

    >>> decimal_to_int("12.34")
    1234
    """
    if isinstance(value, str):
        value = float(value)
    return int(round(value * DECIMAL_SCALE))


def int_to_decimal(raw: int) -> float:
    """Decode int64 hundredths back to a float."""
    return raw / DECIMAL_SCALE


def date_to_days(value: str | _dt.date) -> int:
    """Encode a date (``'1998-09-01'`` or ``datetime.date``) as epoch days."""
    if isinstance(value, str):
        value = _dt.date.fromisoformat(value)
    return (value - _EPOCH).days


def days_to_date(days: int) -> _dt.date:
    """Decode epoch days back to a ``datetime.date``."""
    return _EPOCH + _dt.timedelta(days=int(days))
