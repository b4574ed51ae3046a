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
    """An append-only dictionary of unique strings with stable codes.

    A heap opened from its stored form (:meth:`from_stored`) stays those
    bytes until something reads strings: the code-ordered list is split
    on the first decode, verdict table, substring map or
    :meth:`strings`, and the ``str -> code`` dict is built from the
    list on the first :meth:`encode`, :meth:`lookup`, :meth:`members`
    or ``in``.  ``unique_count``, ``len()`` and ``heap_bytes`` never
    split.
    """

    def __init__(self) -> None:
        # The stored form (NUL-separated UTF-8) until the first read
        # splits it into ``_strings``; then None.
        self._stored: bytes | None = None
        self._strings: list[str] | None = []
        # None until the first look-up builds it from ``_strings``
        self._codes: dict[str, int] | None = {}
        self._count = 0
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

    @classmethod
    def from_stored(cls, payload: bytes, count: int) -> "StringHeap":
        """The heap of ``count`` code-ordered strings stored as
        ``payload``: UTF-8, separated by NUL bytes.  ``b""`` holds no
        string when ``count`` is 0 and the one string ``""`` when it is
        1; the caller has checked that ``payload`` holds ``count - 1``
        separators.  Nothing is decoded here."""
        heap = cls()
        heap._stored = payload
        heap._strings = None
        heap._codes = None
        heap._count = count
        # Each string and its terminating NUL: the separators plus one.
        heap._payload_bytes = len(payload) + 1 if count else 0
        return heap

    def stored(self) -> tuple[bytes, int]:
        """``(payload, count)``, the form :meth:`from_stored` takes."""
        if self._stored is not None:
            return self._stored, self._count
        payload = "\x00".join(self._strings).encode()
        if payload.count(b"\x00") != max(0, self._count - 1):
            raise ValueError(
                "a heap string holds NUL, the stored form's separator"
            )
        return payload, self._count

    def _split(self) -> list[str]:
        """The code-ordered strings, split from the stored form once."""
        strings = self._strings
        if strings is None:
            strings = (
                self._stored.decode().split("\x00") if self._count else []
            )
            self._strings = strings
            self._stored = None
        return strings

    def _index(self) -> dict[str, int]:
        """The ``str -> code`` dict, built on the first look-up."""
        codes = self._codes
        if codes is None:
            strings = self._split()
            codes = dict(zip(strings, range(len(strings))))
            if len(codes) != len(strings):
                raise ValueError(
                    f"string heap repeats {len(strings) - len(codes)} of "
                    f"its {len(strings)} strings: a look-up has no one code"
                )
            self._codes = codes
        return codes

    # -- encoding ------------------------------------------------------------

    def encode(self, value: str) -> int:
        """Return the code for ``value``, interning it if new."""
        codes = self._codes
        if codes is None:
            codes = self._index()
        code = codes.get(value)
        if code is None:
            code = self._count
            codes[value] = code
            self._strings.append(value)
            self._count += 1
            self._payload_bytes += len(value.encode()) + 1  # NUL-terminated
        return code

    def encode_many(self, values: Iterable[str]) -> np.ndarray:
        return np.fromiter(
            (self.encode(v) for v in values), dtype=np.int32, count=-1
        )

    def lookup(self, value: str) -> int | None:
        """Code for an existing string, or None (no interning)."""
        return self._index().get(value)

    # -- decoding ------------------------------------------------------------

    def decode(self, code: int) -> str:
        return self._split()[code]

    def decode_many(self, codes: Sequence[int] | np.ndarray) -> list[str]:
        strings = self._split()
        return [strings[int(c)] for c in codes]

    # -- predicates ----------------------------------------------------------

    def verdicts(self, pattern: str | re.Pattern) -> np.ndarray:
        """Read-only per-code table: does the code's string match?

        ``pattern`` is a SQL LIKE pattern, or a compiled regex applied
        with ``match``.  Each unique string is matched once per heap
        and pattern: the table is kept on the heap, and when the heap
        has grown since, only the new codes are matched.
        """
        strings = self._split()
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
        strings = self._split()
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
        table = np.zeros(self._count, dtype=np.bool_)
        found = [c for c in map(self._index().get, values) if c is not None]
        table[found] = True
        return table

    # -- properties ----------------------------------------------------------

    @property
    def unique_count(self) -> int:
        return self._count

    @property
    def heap_bytes(self) -> int:
        """Unique-string payload in bytes (what the 1 MB regex cache holds)."""
        return self._payload_bytes

    def strings(self) -> list[str]:
        """All unique strings in code order (a copy)."""
        return list(self._split())

    def __len__(self) -> int:
        return self._count

    def __contains__(self, value: str) -> bool:
        return value in self._index()

    def __repr__(self) -> str:
        return f"StringHeap(unique={self.unique_count}, bytes={self._payload_bytes})"
