"""Regex accelerator: heap-cache rule and predicate paths."""

import numpy as np
import pytest

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.core.compiler import SuspendReason
from repro.core.regex_accel import HeapTooLarge, RegexAccelerator
from repro.storage.io import load_catalog, save_catalog
from repro.storage.stringheap import StringHeap


@pytest.fixture()
def heap_and_codes():
    return StringHeap.from_values(
        ["PROMO TIN", "SMALL TIN", "PROMO STEEL", "SMALL TIN"]
    )


class TestCacheRule:
    def test_small_heap_accepted(self, heap_and_codes):
        heap, _ = heap_and_codes
        RegexAccelerator().check_heap(heap)

    def test_oversized_heap_rejected(self, heap_and_codes):
        heap, _ = heap_and_codes
        accel = RegexAccelerator(cache_bytes=4)
        with pytest.raises(HeapTooLarge):
            accel.check_heap(heap)

    def test_effective_bytes_override(self, heap_and_codes):
        heap, _ = heap_and_codes
        accel = RegexAccelerator()
        with pytest.raises(HeapTooLarge):
            accel.check_heap(heap, effective_heap_bytes=2 * 1024 * 1024)


class TestMatching:
    def test_like(self, heap_and_codes):
        heap, codes = heap_and_codes
        accel = RegexAccelerator()
        mask = accel.match_like(codes, heap, "PROMO%")
        assert mask.tolist() == [True, False, True, False]
        assert accel.unique_matches == heap.unique_count
        assert accel.rows_evaluated == 4

    def test_like_negated(self, heap_and_codes):
        heap, codes = heap_and_codes
        mask = RegexAccelerator().match_like(
            codes, heap, "PROMO%", negated=True
        )
        assert mask.tolist() == [False, True, False, True]

    def test_equals(self, heap_and_codes):
        heap, codes = heap_and_codes
        mask = RegexAccelerator().match_equals(codes, heap, "SMALL TIN")
        assert mask.tolist() == [False, True, False, True]

    def test_equals_missing_value(self, heap_and_codes):
        heap, codes = heap_and_codes
        mask = RegexAccelerator().match_equals(codes, heap, "ZZZ")
        assert not mask.any()

    def test_in_list(self, heap_and_codes):
        heap, codes = heap_and_codes
        mask = RegexAccelerator().match_in(
            codes, heap, ("PROMO TIN", "PROMO STEEL")
        )
        assert mask.tolist() == [True, False, True, False]

    def test_in_list_negated(self, heap_and_codes):
        heap, codes = heap_and_codes
        mask = RegexAccelerator().match_in(
            codes, heap, ("PROMO TIN",), negated=True
        )
        assert mask.tolist() == [False, True, True, True]

    def test_unique_evaluation_count_independent_of_rows(self):
        heap, _ = StringHeap.from_values(["a", "b"])
        codes = np.zeros(10_000, dtype=np.int64)
        accel = RegexAccelerator()
        accel.match_like(codes, heap, "a%")
        assert accel.unique_matches == 2  # per unique string, not per row


class TestMetersCountTheModel:
    """The heap keeps a pattern's verdicts; the accelerator being
    modelled does not, so its meters charge every call in full."""

    def test_repeated_pattern_is_charged_every_time(self, heap_and_codes):
        heap, codes = heap_and_codes
        accel = RegexAccelerator()
        first = accel.match_like(codes, heap, "PROMO%")
        again = accel.match_like(
            codes, heap, "PROMO%", negated=True
        )
        assert again.tolist() == (~first).tolist()
        assert len(heap._verdicts) == 1
        assert accel.patterns_compiled == 2
        assert accel.unique_matches == 2 * heap.unique_count
        assert accel.rows_evaluated == 2 * len(codes)

    def test_host_and_device_share_one_table(self, heap_and_codes):
        heap, codes = heap_and_codes
        host = heap.verdicts("PROMO%")
        RegexAccelerator().match_like(codes, heap, "PROMO%")
        assert list(heap._verdicts) == ["PROMO%"]
        assert heap.verdicts("PROMO%") is host

    def test_oversized_heap_raises_before_any_match(self, heap_and_codes):
        heap, codes = heap_and_codes
        accel = RegexAccelerator(cache_bytes=4)
        for _ in range(2):
            with pytest.raises(HeapTooLarge):
                accel.match_like(codes, heap, "PROMO%")
        assert accel.unique_matches == accel.patterns_compiled == 0
        assert not heap._verdicts


class TestDeviceMeterInvariance:
    """Two runs in one process — the second on warm verdict tables —
    meter the same work, equal to what PR 17 metered (SF 0.01)."""

    # query -> (unique_matches, patterns_compiled, rows_evaluated)
    AT_SF1000 = {2: (150, 1, 54), 14: (150, 1, 724)}
    HEAPS_FIT = {13: (15000, 1, 15000), 16: (250, 2, 4100),
                 20: (2000, 1, 2025)}

    @staticmethod
    def _meters(db, n, scale_ratio):
        result = AquomanSimulator(
            db, DeviceConfig(scale_ratio=scale_ratio)
        ).run(tpch.query(n), f"q{n:02d}")
        accel = result.device.regex_accel
        return (
            (accel.unique_matches, accel.patterns_compiled,
             accel.rows_evaluated),
            result.suspend_reasons,
        )

    @pytest.mark.parametrize("n", sorted(AT_SF1000))
    def test_bench_scale_ratio(self, small_db, n):
        for _ in range(2):
            meters, _ = self._meters(small_db, n, 1000 / 0.01)
            assert meters == self.AT_SF1000[n]

    @pytest.mark.parametrize("n", sorted(HEAPS_FIT))
    def test_heaps_that_fit_the_cache(self, small_db, n):
        for _ in range(2):
            meters, reasons = self._meters(small_db, n, 1.0)
            assert meters == self.HEAPS_FIT[n]
            assert SuspendReason.STRING_HEAP not in reasons

    def test_q13_still_suspends_at_sf1000(self, small_db):
        # Warm o_comment's table first: the cache rule must not care.
        self._meters(small_db, 13, 1.0)
        meters, reasons = self._meters(small_db, 13, 1000 / 0.01)
        assert meters == (0, 0, 0)
        assert SuspendReason.STRING_HEAP in reasons


class TestDeviceMeterInvarianceReloaded(TestDeviceMeterInvariance):
    """The same meters on the catalog saved and loaded back, whose
    heaps start as their file bytes."""

    @pytest.fixture(scope="class")
    def small_db(self, small_db, tmp_path_factory):
        path = tmp_path_factory.mktemp("small_db")
        save_catalog(small_db, path)
        return load_catalog(path)
