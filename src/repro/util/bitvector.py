"""A dense bit-vector backed by a NumPy boolean array.

AQUOMAN stores one selection bit per row of a table ("Row-Mask Vector"),
sliced into 32-row groups addressed by Row-Vector ID.  This class is the
shared representation used by the Row Selector, the Mask Reader and the
host engine's candidate lists.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class BitVector:
    """Fixed-length vector of bits with vectorised boolean algebra."""

    __slots__ = ("_bits",)

    def __init__(self, bits: np.ndarray):
        if bits.dtype != np.bool_:
            bits = bits.astype(np.bool_)
        self._bits = bits

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        """All-clear vector of length ``n``."""
        return cls(np.zeros(n, dtype=np.bool_))

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        """All-set vector of length ``n``."""
        return cls(np.ones(n, dtype=np.bool_))

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "BitVector":
        """Vector of length ``n`` with exactly the given positions set."""
        bits = np.zeros(n, dtype=np.bool_)
        if isinstance(indices, np.ndarray):
            idx = indices.astype(np.int64, copy=False)
        else:
            idx = np.fromiter(indices, dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= n:
                raise IndexError("bit index out of range")
            bits[idx] = True
        return cls(bits)

    # -- views -------------------------------------------------------------

    @property
    def bits(self) -> np.ndarray:
        """The underlying boolean array (shared, do not mutate)."""
        return self._bits

    def indices(self) -> np.ndarray:
        """Positions of set bits, ascending."""
        return np.flatnonzero(self._bits)

    def count(self) -> int:
        """Number of set bits."""
        return int(self._bits.sum())

    def any(self) -> bool:
        return bool(self._bits.any())

    def all(self) -> bool:
        return bool(self._bits.all())

    def slice(self, start: int, stop: int) -> "BitVector":
        """Sub-vector ``[start, stop)`` (a view, not a copy)."""
        return BitVector(self._bits[start:stop])

    # -- algebra -----------------------------------------------------------

    def __and__(self, other: "BitVector") -> "BitVector":
        return BitVector(self._bits & other._bits)

    def __or__(self, other: "BitVector") -> "BitVector":
        return BitVector(self._bits | other._bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        return BitVector(self._bits ^ other._bits)

    def __invert__(self) -> "BitVector":
        return BitVector(~self._bits)

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, i: int) -> bool:
        return bool(self._bits[i])

    def __iter__(self) -> Iterator[bool]:
        return iter(bool(b) for b in self._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return np.array_equal(self._bits, other._bits)

    def __hash__(self):  # noqa: D105 - mutable, unhashable by design
        raise TypeError("BitVector is unhashable")

    def __repr__(self) -> str:
        return f"BitVector(len={len(self)}, set={self.count()})"

    # -- row-vector helpers --------------------------------------------------

    def group_any(self, group: int) -> np.ndarray:
        """Per-group OR: one flag per ``group``-sized chunk of the vector.

        Used by the Table Reader to skip flash pages whose row-vectors are
        entirely masked out (``MaskAllZero`` in the paper's Fig. 6).
        """
        n = len(self._bits)
        padded = n + (-n) % group
        buf = np.zeros(padded, dtype=np.bool_)
        buf[:n] = self._bits
        return buf.reshape(-1, group).any(axis=1)
