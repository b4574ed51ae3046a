"""SQL Swissknife accelerators: group-by, TopK, merger, sorter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.swissknife.groupby import (
    HASH_BUCKETS,
    MAX_GROUP_ID_BYTES,
    AggregateGroupBy,
    bucket_of,
    zip_group_columns,
)
from repro.core.swissknife.merger import Merger, merge_intersect
from repro.core.swissknife.sorter import (
    SorterThroughputModel,
    StreamingSorter,
)
from repro.core.swissknife.topk import (
    TopKAccelerator,
    bitonic_sort,
    vector_compare_and_swap,
)
from repro.engine.operators.grouping import group_rows
from test_engine_operators import _examples


class TestAggregateGroupBy:
    def test_few_groups_no_spill(self):
        accel = AggregateGroupBy()
        gids = np.array([7, 3, 7, 9, 3, 7], dtype=np.int64)
        vals = np.array([1, 2, 3, 4, 5, 6], dtype=np.int64)
        result = accel.run(gids, {"v": vals}, {"v": "sum"})
        assert result.n_spilled_groups == 0
        got = dict(zip(result.group_ids.tolist(),
                       result.aggregates["v"].tolist()))
        assert got == {7: 10, 3: 7, 9: 4}

    def test_group_numbers_in_first_appearance_order(self):
        accel = AggregateGroupBy()
        result = accel.run(
            np.array([30, 10, 30, 20]),
            {"v": np.ones(4, dtype=np.int64)},
            {"v": "cnt"},
        )
        assert result.group_ids.tolist() == [30, 10, 20]

    def test_min_max_cnt(self):
        accel = AggregateGroupBy()
        gids = np.array([1, 1, 2])
        cols = {"a": np.array([5, 3, 9]), "b": np.array([5, 3, 9])}
        result = accel.run(gids, cols, {"a": "min", "b": "max"})
        assert result.aggregates["a"].tolist() == [3, 9]
        assert result.aggregates["b"].tolist() == [5, 9]
        assert result.counts.tolist() == [2, 1]

    def test_collisions_spill_to_host(self):
        accel = AggregateGroupBy(n_buckets=2)
        gids = np.arange(100, dtype=np.int64)
        result = accel.run(
            gids, {"v": np.ones(100, dtype=np.int64)}, {"v": "sum"}
        )
        assert result.n_groups == 2  # one winner per bucket
        assert result.n_spilled_groups == 98
        assert len(result.spilled_rows) == 98
        assert result.spill_fraction == pytest.approx(0.98)

    def test_winners_plus_spills_cover_input(self):
        accel = AggregateGroupBy(n_buckets=8)
        gids = np.arange(64, dtype=np.int64) % 20
        result = accel.run(
            gids, {"v": np.ones(64, dtype=np.int64)}, {"v": "sum"}
        )
        covered = int(result.counts.sum()) + len(result.spilled_rows)
        assert covered == 64

    def test_wide_group_id_spills_everything(self):
        accel = AggregateGroupBy()
        result = accel.run(
            np.array([1, 2]),
            {"v": np.array([1, 1])},
            {"v": "sum"},
            group_id_bytes=20,
        )
        assert result.n_groups == 0
        assert len(result.spilled_rows) == 2

    def test_aggregate_column_budget(self):
        accel = AggregateGroupBy()
        funcs = {f"c{i}": "sum" for i in range(9)}
        with pytest.raises(ValueError, match="8"):
            accel.run(np.array([1]), {}, funcs)

    def test_q1_style_groups_do_not_collide(self):
        # returnflag x linestatus zipped: high-bit-only differences must
        # still spread across buckets (regression for weak mixing).
        keys = [np.array([0, 1, 2, 0]), np.array([0, 0, 1, 1])]
        zipped, width = zip_group_columns(keys, [4, 4])
        buckets = bucket_of(zipped)
        assert len(set(buckets.tolist())) == 4

    @given(st.lists(st.integers(0, 10**12), min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_device_winner_aggregates_are_correct(self, raw):
        gids = np.array(raw, dtype=np.int64)
        vals = np.arange(len(gids), dtype=np.int64)
        result = AggregateGroupBy().run(gids, {"v": vals}, {"v": "sum"})
        reference = {}
        for g, v in zip(raw, vals.tolist()):
            reference[g] = reference.get(g, 0) + v
        spilled = set(gids[result.spilled_rows].tolist())
        for gid, total in zip(result.group_ids.tolist(),
                              result.aggregates["v"].tolist()):
            if gid not in spilled:
                assert total == reference[gid]

    @given(st.lists(st.integers(0, 400), min_size=1, max_size=300),
           st.sampled_from([2, 16, 1024]), st.sampled_from([8, 20]))
    @settings(max_examples=60)
    def test_spills_count_what_run_spills(self, raw, buckets, id_bytes):
        gids = np.array(raw, dtype=np.int64)
        result = AggregateGroupBy(n_buckets=buckets).run(
            gids, {"v": np.ones(len(gids), dtype=np.int64)}, {"v": "cnt"},
            group_id_bytes=id_bytes,
        )
        groups = group_rows([gids])
        assert AggregateGroupBy(n_buckets=buckets).spills(
            gids[groups.representative], groups.counts,
            group_id_bytes=id_bytes,
        ) == (result.n_spilled_groups, len(result.spilled_rows))


def _per_row_spills(
    ids: np.ndarray, n_groups: int, n_buckets: int, id_bytes: int
) -> tuple[int, int]:
    """The spill count row by row, kept as the reference for the
    per-group claims: the first *row* to reach a bucket owns it for its
    identifier, a row wins when its identifier owns its bucket, and the
    spilled groups are the groups less the claimed buckets."""
    n = len(ids)
    if id_bytes > MAX_GROUP_ID_BYTES:
        return n_groups, n
    buckets = bucket_of(ids, n_buckets)
    first_claim = np.full(n_buckets, n, dtype=np.int64)
    np.minimum.at(first_claim, buckets, np.arange(n, dtype=np.int64))
    claimed = first_claim < n
    owner = np.full(n_buckets, -1, dtype=np.int64)
    owner[claimed] = ids[first_claim[claimed]]
    wins = owner[buckets] == ids
    return (
        n_groups - int(np.count_nonzero(claimed)),
        n - int(np.count_nonzero(wins)),
    )


def _group_spills(columns, widths, n_buckets):
    """(per-group claims, per-row reference) for one set of key
    columns, zipped the way the device zips them."""
    groups = group_rows(columns)
    per_group, id_bytes = zip_group_columns(
        [c[groups.representative] for c in columns], widths
    )
    per_row, row_bytes = zip_group_columns(columns, widths)
    assert id_bytes == row_bytes
    claims = AggregateGroupBy(n_buckets=n_buckets).spills(
        per_group, groups.counts, group_id_bytes=id_bytes
    )
    return claims, _per_row_spills(
        per_row, groups.n_groups, n_buckets, id_bytes
    )


@st.composite
def _key_columns(draw):
    """1–3 key columns of physical width 4 or 8 (zips of 4 to 24
    bytes: packed, surrogate, and too wide to hash).  Values come from
    small pools, so groups repeat; a 4-byte column may hold values past
    32 bits, so two distinct tuples can pack to one identifier."""
    n = draw(st.integers(1, 80))
    columns, widths = [], []
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.sampled_from([4, 8]))
        pool = draw(st.lists(
            st.one_of(
                st.sampled_from([0, 1, 2, 2**32, 2**32 + 1, -1]),
                st.integers(-(2**40), 2**40),
            ),
            min_size=1, max_size=6,
        ))
        picks = draw(st.lists(st.sampled_from(pool), min_size=n,
                              max_size=n))
        columns.append(np.array(picks, dtype=np.int64))
        widths.append(width)
    return columns, widths


class TestSpillClaims:
    """The bucket claims made group by group equal the row-by-row
    rule: groups are numbered in first-appearance order, so the first
    group number in a bucket is the group of its first row."""

    @given(_key_columns(), st.sampled_from([2, 16, HASH_BUCKETS]))
    @settings(max_examples=_examples(300), deadline=None)
    def test_per_group_claims_equal_the_per_row_rule(self, case, buckets):
        columns, widths = case
        claims, reference = _group_spills(columns, widths, buckets)
        assert claims == reference

    @pytest.mark.parametrize("buckets", [2, 16, HASH_BUCKETS])
    def test_two_groups_sharing_one_identifier(self, buckets):
        # (0, 2**32) and (1, 0) pack to the same 8 bytes.
        columns = [np.array([0, 1, 0, 1, 7]),
                   np.array([2**32, 0, 2**32, 0, 3])]
        per_row, _ = zip_group_columns(columns, [4, 4])
        assert per_row[0] == per_row[1] != per_row[4]
        claims, reference = _group_spills(columns, [4, 4], buckets)
        assert claims == reference
        assert claims[1] == 0  # both win with their shared identifier

    @pytest.mark.parametrize("widths, id_bytes", [([8, 8], 16),
                                                   ([8, 8, 8], 24)])
    def test_surrogate_and_too_wide_routes(self, widths, id_bytes):
        rng = np.random.default_rng(len(widths))
        columns = [rng.integers(-5, 5, 200) for _ in widths]
        _, got_bytes = zip_group_columns(columns, widths)
        assert got_bytes == id_bytes
        for buckets in (2, 16, HASH_BUCKETS):
            claims, reference = _group_spills(columns, widths, buckets)
            assert claims == reference
        if id_bytes > MAX_GROUP_ID_BYTES:
            groups = group_rows(columns)
            assert claims == (groups.n_groups, 200)


class TestZipGroupColumns:
    def test_narrow_zip_is_bitpacked(self):
        zipped, width = zip_group_columns(
            [np.array([1]), np.array([2])], [4, 4]
        )
        assert width == 8
        assert zipped[0] == (1 << 32) | 2

    def test_wide_zip_reports_true_width(self):
        cols = [np.array([1, 1, 2]), np.array([3, 3, 3]),
                np.array([5, 5, 9])]
        zipped, width = zip_group_columns(cols, [8, 8, 8])
        assert width == 24
        assert zipped[0] == zipped[1]  # same tuple -> same surrogate
        assert zipped[0] != zipped[2]

    def test_empty(self):
        zipped, width = zip_group_columns([], [])
        assert len(zipped) == 0 and width == 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_wide_surrogate_from_the_groups_equals_the_factorised_one(
        self, data
    ):
        """The surrogates of the representatives' tuples, gathered
        through the host's grouping, are those ``np.unique`` gives
        every row: what lets the device zip one tuple per group."""
        n = data.draw(st.integers(1, 60))
        columns = []
        for _ in range(data.draw(st.integers(2, 4))):
            dtype = data.draw(st.sampled_from([np.int32, np.int64]))
            info = np.iinfo(dtype)
            # A few distinct values, extremes among them, so tuples
            # repeat and order by sign and magnitude.
            pool = data.draw(st.lists(
                st.one_of(
                    st.sampled_from([int(info.min), int(info.max), 0, -1]),
                    st.integers(int(info.min), int(info.max)),
                ),
                min_size=1, max_size=4,
            ))
            picks = data.draw(st.lists(
                st.sampled_from(pool), min_size=n, max_size=n
            ))
            columns.append(np.array(picks, dtype=dtype))
        widths = [8] * len(columns)
        factorised, width = zip_group_columns(columns, widths)
        groups = group_rows(columns)
        ranked, ranked_width = zip_group_columns(
            [c[groups.representative] for c in columns], widths
        )
        assert width == ranked_width == 8 * len(columns)
        assert ranked.dtype == factorised.dtype == np.int64
        assert np.array_equal(ranked[groups.group_of_row], factorised)


class TestTopK:
    def test_vcas_keeps_larger_half(self):
        out, top = vector_compare_and_swap(
            np.array([1, 3, 5]), np.array([2, 4, 6])
        )
        assert top.tolist() == [4, 5, 6]
        assert out.tolist() == [1, 2, 3]

    def test_vcas_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            vector_compare_and_swap(np.array([1]), np.array([1, 2]))

    def test_bitonic_sort_matches_numpy(self):
        rng = np.random.default_rng(0)
        v = rng.integers(-100, 100, size=32)
        assert bitonic_sort(v).tolist() == np.sort(v).tolist()

    def test_bitonic_requires_power_of_two(self):
        with pytest.raises(ValueError):
            bitonic_sort(np.arange(12))

    def test_topk_small_stream(self):
        accel = TopKAccelerator(k=3, vector_size=4)
        out = accel.run(np.array([5, 1, 9, 3, 7, 2], dtype=np.int64))
        assert out.tolist() == [9, 7, 5]

    def test_topk_k_larger_than_stream(self):
        accel = TopKAccelerator(k=10, vector_size=4)
        out = accel.run(np.array([2, 1], dtype=np.int64))
        assert out.tolist() == [2, 1]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopKAccelerator(k=0)

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=300),
           st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_topk_matches_sort(self, values, k):
        accel = TopKAccelerator(k=k, vector_size=8)
        got = accel.run(np.array(values, dtype=np.int64))
        expected = np.sort(values)[::-1][:k]
        assert got.tolist() == expected.tolist()


class TestMerger:
    def test_intersection_basic(self):
        out = merge_intersect(np.array([1, 2, 4, 6]), np.array([2, 3, 6]))
        assert out.tolist() == [2, 6]

    def test_duplicates_pair_off(self):
        out = merge_intersect(np.array([5, 5, 5]), np.array([5, 5]))
        assert out.tolist() == [5, 5]

    def test_empty_sides(self):
        assert len(merge_intersect(np.array([]), np.array([1]))) == 0

    def test_merge_produces_sorted_union(self):
        m = Merger()
        out = m.merge(np.array([1, 4]), np.array([2, 3]))
        assert out.tolist() == [1, 2, 3, 4]
        assert m.stats.values_merged == 4

    @given(
        st.lists(st.integers(0, 30), max_size=60),
        st.lists(st.integers(0, 30), max_size=60),
    )
    @settings(max_examples=60)
    def test_multiset_semantics(self, a, b):
        got = merge_intersect(
            np.sort(np.array(a, dtype=np.int64)),
            np.sort(np.array(b, dtype=np.int64)),
        ).tolist()
        from collections import Counter

        ca, cb = Counter(a), Counter(b)
        expected = sorted(
            v for v in ca | cb for _ in range(min(ca[v], cb[v]))
        )
        assert got == expected


class TestStreamingSorter:
    def test_blocks_are_sorted_and_sized(self):
        sorter = StreamingSorter(element_bytes=8, block_bytes=64)
        keys = np.arange(30, dtype=np.int64)[::-1]
        blocks = sorter.sort_blocks(keys)
        assert len(blocks) == 4  # 8 elements per 64B block
        for k, _ in blocks:
            assert (np.diff(k) >= 0).all()

    def test_payload_follows_keys(self):
        sorter = StreamingSorter(element_bytes=16, block_bytes=1 << 20)
        keys = np.array([3, 1, 2], dtype=np.int64)
        payload = np.array([30, 10, 20], dtype=np.int64)
        (k, p), = sorter.sort_blocks(keys, payload)
        assert k.tolist() == [1, 2, 3]
        assert p.tolist() == [10, 20, 30]

    def test_sort_fully_equals_numpy(self):
        sorter = StreamingSorter(element_bytes=8, block_bytes=128)
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 10**9, size=1000)
        got, _ = sorter.sort_fully(keys)
        assert np.array_equal(got, np.sort(keys))

    def test_stats_accumulate(self):
        sorter = StreamingSorter(element_bytes=8, block_bytes=64)
        sorter.sort_blocks(np.arange(16, dtype=np.int64))
        assert sorter.stats.elements_in == 16
        assert sorter.stats.bytes_in == 128
        assert sorter.stats.blocks_out == 2

    def test_empty_stream(self):
        sorter = StreamingSorter()
        blocks = sorter.sort_blocks(np.array([], dtype=np.int64))
        assert len(blocks) == 1
        assert len(blocks[0][0]) == 0

    @given(st.lists(st.integers(0, 10**6), max_size=200),
           st.integers(3, 8))
    @settings(max_examples=40)
    def test_sort_fully_property(self, values, log_block):
        sorter = StreamingSorter(element_bytes=8,
                                 block_bytes=1 << log_block)
        keys = np.array(values, dtype=np.int64)
        got, _ = sorter.sort_fully(keys)
        assert got.tolist() == sorted(values)


class TestSorterThroughputModel:
    """The Table V reproduction: shape assertions on the model."""

    def setup_method(self):
        self.model = SorterThroughputModel()
        rng = np.random.default_rng(7)
        self.random = rng.integers(0, 1 << 60, size=1 << 16)
        self.sorted = np.sort(self.random)
        self.reverse = self.sorted[::-1]

    def test_random_alternates_sorted_streaks(self):
        p_random = self.model.alternation_probability(self.random)
        p_sorted = self.model.alternation_probability(self.sorted)
        p_reverse = self.model.alternation_probability(self.reverse)
        assert p_random > 0.4
        assert p_sorted < 0.01
        assert p_reverse < 0.01

    def test_random_input_sorts_faster(self):
        gb = 1 << 30
        fast = self.model.throughput(1000 * gb, alternation=0.5)
        slow = self.model.throughput(1000 * gb, alternation=0.0)
        assert fast > slow

    def test_throughput_grows_with_input_length(self):
        gb = 1 << 30
        t1 = self.model.throughput(1 * gb, 0.5)
        t10 = self.model.throughput(10 * gb, 0.5)
        t1000 = self.model.throughput(1000 * gb, 0.5)
        assert t1 < t10 < t1000

    def test_table5_absolute_values(self):
        """The paper's measured cells, within 10%."""
        gb = 1 << 30
        cells = {
            (1, 0.0): 4.4, (1, 0.5): 6.2,
            (10, 0.0): 7.9, (10, 0.5): 11.0,
            (100, 0.0): 8.5, (100, 0.5): 11.9,
            (1000, 0.0): 8.6, (1000, 0.5): 12.0,
        }
        for (size_gb, alt), expected in cells.items():
            got = self.model.throughput(size_gb * gb, alt) / gb
            assert got == pytest.approx(expected, rel=0.10)

    def test_sort_seconds(self):
        assert self.model.sort_seconds(0) == 0.0
        assert self.model.sort_seconds(1 << 30, 0.5) > 0
