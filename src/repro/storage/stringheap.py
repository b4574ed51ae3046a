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

A string predicate is answered per *code*, never per row: a LIKE is
one scan of a bytes regex over the heap's NUL-framed UTF-8 (the way
the accelerator streams its cached heap), each hit mapped to its code
by the separator offsets, and the heap keeps the verdicts
(:meth:`StringHeap.verdicts`); rows are a gather through their codes.
SUBSTRING is answered per code too (:meth:`StringHeap.substrings`).
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


# One UTF-8 character: a lead byte, then its continuation bytes.
_ONE_CHAR = rb"[^\x00\x80-\xbf][\x80-\xbf]*"
_ANY_CHARS = rb"[^\x00]*"


def like_verdicts(framed: bytes, count: int, pattern: str) -> np.ndarray:
    """Per string of ``framed``: does it match the SQL LIKE ``pattern``?

    ``framed`` is ``count`` strings as NUL-framed UTF-8 — a NUL before
    each string and one after the last — and holds no other NUL.  One
    ``finditer`` of a bytes regex finds the matches: ``%`` is any run
    of non-NUL bytes, ``_`` one UTF-8 character, anything else its
    escaped bytes.  A pattern that does not start with ``%`` is pinned
    to a string's leading NUL, one that does not end with ``%`` to its
    trailing NUL, so no match leaves its string; each hit's offset
    maps to its string's code through the separators.
    """
    if "\x00" in pattern:
        # No heap string holds NUL.
        return np.zeros(count, dtype=np.bool_)
    # A leading ``%`` is the unanchored search itself; as a regex it
    # would rescan the rest of the string from every failed start.
    body = pattern.lstrip("%")
    if not body and pattern:
        return np.ones(count, dtype=np.bool_)
    parts = [] if pattern.startswith("%") else [rb"\x00"]
    for ch in body:
        if ch == "%":
            parts.append(_ANY_CHARS)
        elif ch == "_":
            parts.append(_ONE_CHAR)
        else:
            parts.append(re.escape(ch.encode()))
    if not body.endswith("%"):
        parts.append(rb"(?=\x00)")
    regex = re.compile(b"".join(parts))
    hits = np.fromiter(
        (m.start() for m in regex.finditer(framed)), dtype=np.int64
    )
    table = np.zeros(count, dtype=np.bool_)
    if len(hits):
        separators = np.flatnonzero(np.frombuffer(framed, np.uint8) == 0)
        table[np.searchsorted(separators, hits, side="right") - 1] = True
    return table


class StringHeap:
    """An append-only dictionary of unique strings with stable codes.

    A heap opened from its stored form (:meth:`from_stored`) stays those
    bytes until something reads strings: the code-ordered list is split
    on the first decode, substring map or :meth:`strings`, and the
    ``str -> code`` dict is built from the list on the first
    :meth:`encode`, :meth:`lookup`, :meth:`members` or ``in``.
    ``unique_count``, ``len()``, ``heap_bytes`` and verdict tables
    never split: the first verdict table frames the stored bytes in
    place, and every later one scans that same buffer.
    """

    def __init__(self) -> None:
        # The stored form (NUL-separated UTF-8) until the first read
        # splits it into ``_strings``; then None.  The first verdict
        # table frames it in place: a NUL before and after the payload.
        self._stored: bytes | None = None
        self._framed = False
        # What an error about the stored bytes names (``table.column``)
        self._name = "string heap"
        self._strings: list[str] | None = []
        # None until the first look-up builds it from ``_strings``
        self._codes: dict[str, int] | None = {}
        self._count = 0
        self._payload_bytes = 0
        # LIKE pattern -> read-only verdict per code, for the codes
        # that existed when it was last asked for
        self._verdicts: dict[str, np.ndarray] = {}
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
    def from_stored(
        cls, payload: bytes, count: int, name: str = "string heap"
    ) -> "StringHeap":
        """The heap of ``count`` code-ordered strings stored as
        ``payload``: UTF-8, separated by NUL bytes.  ``b""`` holds no
        string when ``count`` is 0 and the one string ``""`` when it is
        1; the caller has checked that ``payload`` holds ``count - 1``
        separators.  Nothing is decoded or checked here: the first
        split or LIKE checks the UTF-8 and raises ``ValueError``
        naming ``name`` (the column's ``table.column``) if it is not."""
        heap = cls()
        heap._name = name
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
            payload = self._stored[1:-1] if self._framed else self._stored
            return payload, self._count
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
                self._decoded().split("\x00") if self._count else []
            )
            if self._framed:
                strings = strings[1:-1]
            self._strings = strings
            self._stored = None
            self._framed = False
        return strings

    def _decoded(self) -> str:
        """The stored form as text; invalid UTF-8 is a ``ValueError``
        that names the column and the string's code.  (Framing checks
        the bytes first, so a framed heap always decodes.)"""
        stored = self._stored
        try:
            return stored.decode()
        except UnicodeDecodeError as exc:
            code = stored.count(b"\x00", 0, exc.start)
            raise ValueError(
                f"{self._name}: heap string {code} is not valid UTF-8 "
                f"({exc.reason} at byte {exc.start})"
            ) from None

    def _framed_from(self, start: int) -> bytes:
        """Codes ``start`` onward as NUL-framed UTF-8 (see
        :func:`like_verdicts`).  An unsplit heap frames its stored form
        once, replacing it; a split one joins the strings asked for."""
        stored = self._stored
        if stored is not None:
            if not self._framed:
                if not stored.isascii():
                    self._decoded()  # raises on invalid UTF-8
                # Replaced, not kept beside: freeing the loaded bytes
                # (and the first concatenation) raises glibc's dynamic
                # mmap threshold as splitting did; a kept copy more
                # than tripled the device's warm-pass page faults.
                stored = b"\x00" + stored + b"\x00"
                self._stored = stored
                self._framed = True
            return stored
        tail = self._split()[start:]
        framed = ("\x00" + "\x00".join(tail) + "\x00").encode()
        separators = len(framed) - np.count_nonzero(
            np.frombuffer(framed, dtype=np.uint8)
        )
        if separators != len(tail) + 1:
            raise ValueError(
                "a heap string holds NUL, the stored form's separator"
            )
        return framed

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

    def verdicts(self, pattern: str) -> np.ndarray:
        """Read-only per-code table: does the code's string match the
        SQL LIKE ``pattern``?

        The heap is scanned once per pattern (:func:`like_verdicts`):
        the table is kept on the heap, and when the heap has grown
        since, only the new codes are scanned.
        """
        table = self._verdicts.get(pattern, _NO_VERDICTS)
        if len(table) < self._count:
            start = len(table)
            fresh = like_verdicts(
                self._framed_from(start), self._count - start, pattern
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

    def string_array(self) -> np.ndarray:
        """All unique strings in code order, as a NumPy ``str_`` array
        (typed even when the heap is empty) for ordered compares."""
        return np.array(self._split(), dtype=np.str_)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, value: str) -> bool:
        return value in self._index()

    def __repr__(self) -> str:
        return f"StringHeap(unique={self.unique_count}, bytes={self._payload_bytes})"
