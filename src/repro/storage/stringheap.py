"""Dictionary-encoded string heap.

MonetDB stores variable-length strings in a per-column heap file; the
column file itself holds fixed-width offsets.  We model the heap as a
dictionary of unique strings: the column stores 32-bit codes, the heap
stores each distinct string once.

Two heap properties drive AQUOMAN behaviour:

- ``heap_bytes`` — total unique-string payload.  The regex accelerator has
  a 1 MB cache; columns whose heap exceeds it force the query back to the
  host (suspension condition 2, Sec. VI-E).
- small-domain columns (country names, ship modes) fit trivially and can
  be pre-evaluated to a one-bit column at line rate.

A string predicate is answered per *code*, never per row: the heap
matches each unique string once and keeps the verdicts
(:meth:`StringHeap.verdicts`), rows are a gather through their codes.
SUBSTRING is answered the same way (:meth:`StringHeap.substrings`).
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np

# Verdict tables one heap keeps (one byte per unique string each), and
# as many substring maps; the oldest is dropped first.  TPC-H asks at
# most two patterns and one substring per column.
MAX_VERDICT_PATTERNS = 16
_NO_VERDICTS = np.empty(0, dtype=np.bool_)
_NO_VERDICTS.flags.writeable = False
_NO_CODES = np.empty(0, dtype=np.int64)
_NO_CODES.flags.writeable = False


def _extended(table: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """``table`` with the new codes' entries appended, read-only."""
    table = np.concatenate([table, fresh])
    table.flags.writeable = False
    return table


def _remember(memo: dict, key, value) -> None:
    """Keep ``value`` in a heap's per-code memo, oldest entry out first."""
    if key not in memo and len(memo) >= MAX_VERDICT_PATTERNS:
        del memo[next(iter(memo))]
    # Per-process memo, filled worker-side after a fork; under the GIL
    # a racing fill stores the same table twice.
    memo[key] = value


def like_regex(pattern: str) -> re.Pattern:
    """The anchored regex of a SQL LIKE pattern (``%``, ``_`` wildcards)."""
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$")


class StringHeap:
    """An append-only dictionary of unique strings with stable codes."""

    def __init__(self) -> None:
        self._strings: list[str] = []
        self._codes: dict[str, int] = {}
        self._payload_bytes = 0
        # pattern -> read-only verdict per code, for the codes that
        # existed when it was last asked for
        self._verdicts: dict[str | re.Pattern, np.ndarray] = {}
        # (start, length) -> (heap of the substrings, read-only code of
        # each code's substring), likewise
        self._substrings: dict[
            tuple[int, int], tuple[StringHeap, np.ndarray]
        ] = {}

    @classmethod
    def from_values(cls, values: Iterable[str]) -> tuple["StringHeap", np.ndarray]:
        """Build a heap from a value sequence; return (heap, code array)."""
        heap = cls()
        codes = heap.encode_many(values)
        return heap, codes

    # -- encoding ------------------------------------------------------------

    def encode(self, value: str) -> int:
        """Return the code for ``value``, interning it if new."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._strings)
            self._codes[value] = code
            self._strings.append(value)
            self._payload_bytes += len(value.encode()) + 1  # NUL-terminated
        return code

    def encode_many(self, values: Iterable[str]) -> np.ndarray:
        return np.fromiter(
            (self.encode(v) for v in values), dtype=np.int32, count=-1
        )

    def lookup(self, value: str) -> int | None:
        """Code for an existing string, or None (no interning)."""
        return self._codes.get(value)

    # -- decoding ------------------------------------------------------------

    def decode(self, code: int) -> str:
        return self._strings[code]

    def decode_many(self, codes: Sequence[int] | np.ndarray) -> list[str]:
        strings = self._strings
        return [strings[int(c)] for c in codes]

    # -- predicates ----------------------------------------------------------

    def verdicts(self, pattern: str | re.Pattern) -> np.ndarray:
        """Read-only per-code table: does the code's string match?

        ``pattern`` is a SQL LIKE pattern, or a compiled regex applied
        with ``match``.  Each unique string is matched once per heap
        and pattern: the table is kept on the heap, and when the heap
        has grown since, only the new codes are matched.
        """
        strings = self._strings
        table = self._verdicts.get(pattern, _NO_VERDICTS)
        if len(table) < len(strings):
            regex = (
                like_regex(pattern) if isinstance(pattern, str) else pattern
            )
            tail = strings[len(table):]
            fresh = np.fromiter(
                (regex.match(s) is not None for s in tail),
                dtype=np.bool_,
                count=len(tail),
            )
            table = _extended(table, fresh)
            _remember(self._verdicts, pattern, table)
        return table

    def substrings(
        self, start: int, length: int
    ) -> tuple["StringHeap", np.ndarray]:
        """``(out_heap, code map)`` of SUBSTRING(s FROM start FOR length).

        ``code_map[c]`` is the code, in ``out_heap``, of the substring
        of this heap's string ``c`` (``start`` counts from 1).  Each
        unique string is cut once per heap and ``(start, length)``:
        both are kept on the heap, and when the heap has grown since,
        only the new codes are cut — into the same ``out_heap``, whose
        codes are stable.  Every caller shares that ``out_heap``;
        nothing may intern into it.
        """
        strings = self._strings
        out_heap, code_map = self._substrings.get((start, length)) or (
            StringHeap(), _NO_CODES
        )
        if len(code_map) < len(strings):
            lo = start - 1
            hi = lo + length
            tail = strings[len(code_map):]
            fresh = np.fromiter(
                (out_heap.encode(s[lo:hi]) for s in tail),
                dtype=np.int64,
                count=len(tail),
            )
            code_map = _extended(code_map, fresh)
            _remember(
                self._substrings, (start, length), (out_heap, code_map)
            )
        return out_heap, code_map

    def members(self, values: Iterable[str]) -> np.ndarray:
        """Per-code table: is the code's string one of ``values``?"""
        table = np.zeros(len(self._strings), dtype=np.bool_)
        found = [c for c in map(self._codes.get, values) if c is not None]
        table[found] = True
        return table

    # -- properties ----------------------------------------------------------

    @property
    def unique_count(self) -> int:
        return len(self._strings)

    @property
    def heap_bytes(self) -> int:
        """Unique-string payload in bytes (what the 1 MB regex cache holds)."""
        return self._payload_bytes

    def strings(self) -> list[str]:
        """All unique strings in code order (a copy)."""
        return list(self._strings)

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, value: str) -> bool:
        return value in self._codes

    def __repr__(self) -> str:
        return f"StringHeap(unique={self.unique_count}, bytes={self._payload_bytes})"
