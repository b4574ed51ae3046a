"""BitVector: construction, algebra, grouping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitvector import BitVector


class TestConstruction:
    def test_zeros_all_clear(self):
        bv = BitVector.zeros(10)
        assert len(bv) == 10
        assert bv.count() == 0
        assert not bv.any()

    def test_ones_all_set(self):
        bv = BitVector.ones(7)
        assert bv.count() == 7
        assert bv.all()

    def test_from_indices(self):
        bv = BitVector.from_indices([1, 3, 5], 8)
        assert bv.indices().tolist() == [1, 3, 5]
        assert bv.count() == 3

    def test_from_indices_duplicates_idempotent(self):
        bv = BitVector.from_indices([2, 2, 2], 4)
        assert bv.count() == 1

    def test_from_indices_empty(self):
        bv = BitVector.from_indices([], 4)
        assert bv.count() == 0

    def test_from_indices_out_of_range(self):
        with pytest.raises(IndexError):
            BitVector.from_indices([9], 4)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_from_indices_ndarray(self, dtype):
        # Arrays skip the element-by-element route; unsorted and
        # repeated positions behave as they do for any iterable.
        bv = BitVector.from_indices(np.array([5, 1, 5, 3], dtype=dtype), 8)
        assert bv == BitVector.from_indices([1, 3, 5], 8)

    def test_from_indices_ndarray_empty(self):
        bv = BitVector.from_indices(np.empty(0, dtype=np.int64), 4)
        assert len(bv) == 4 and bv.count() == 0

    @pytest.mark.parametrize("bad", [[4], [0, 9], [-1], [2, -5]])
    def test_from_indices_ndarray_out_of_range(self, bad):
        with pytest.raises(IndexError):
            BitVector.from_indices(np.array(bad, dtype=np.int64), 4)

    def test_from_indices_negative(self):
        with pytest.raises(IndexError):
            BitVector.from_indices([-1], 4)

    def test_from_indices_generator(self):
        bv = BitVector.from_indices((i for i in (0, 2)), 3)
        assert bv.indices().tolist() == [0, 2]

    def test_nonbool_array_coerced(self):
        bv = BitVector(np.array([0, 1, 2]))
        assert bv.count() == 2


class TestAlgebra:
    def test_and(self):
        a = BitVector.from_indices([0, 1, 2], 4)
        b = BitVector.from_indices([1, 2, 3], 4)
        assert (a & b).indices().tolist() == [1, 2]

    def test_or(self):
        a = BitVector.from_indices([0], 4)
        b = BitVector.from_indices([3], 4)
        assert (a | b).indices().tolist() == [0, 3]

    def test_xor(self):
        a = BitVector.from_indices([0, 1], 4)
        b = BitVector.from_indices([1, 2], 4)
        assert (a ^ b).indices().tolist() == [0, 2]

    def test_invert(self):
        a = BitVector.from_indices([0, 2], 4)
        assert (~a).indices().tolist() == [1, 3]

    def test_equality(self):
        assert BitVector.zeros(4) == BitVector.zeros(4)
        assert BitVector.zeros(4) != BitVector.ones(4)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(BitVector.zeros(2))


class TestGroupAny:
    def test_exact_multiple(self):
        bv = BitVector.from_indices([0, 5], 8)
        flags = bv.group_any(4)
        assert flags.tolist() == [True, True]

    def test_partial_tail_group(self):
        bv = BitVector.from_indices([9], 10)
        flags = bv.group_any(4)
        assert flags.tolist() == [False, False, True]

    def test_all_clear(self):
        assert not BitVector.zeros(64).group_any(32).any()

    @given(st.lists(st.integers(0, 99), max_size=30), st.integers(1, 40))
    def test_group_any_matches_reference(self, idx, group):
        bv = BitVector.from_indices(idx, 100)
        flags = bv.group_any(group)
        for g, flag in enumerate(flags):
            lo, hi = g * group, min((g + 1) * group, 100)
            assert flag == any(lo <= i < hi for i in idx)


class TestSlice:
    def test_slice_view(self):
        bv = BitVector.from_indices([2, 4], 6)
        assert bv.slice(2, 5).indices().tolist() == [0, 2]

    @given(st.lists(st.integers(0, 49), max_size=20))
    def test_indices_roundtrip(self, idx):
        bv = BitVector.from_indices(idx, 50)
        assert set(bv.indices().tolist()) == set(idx)
