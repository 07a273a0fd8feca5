"""Tests for the segmented-array helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.arrays import concat_ranges, segment_ids, segment_positions, segmented_sum

lengths_strategy = st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=20)


class TestConcatRanges:
    def test_basic(self):
        got = concat_ranges(np.array([5, 0]), np.array([3, 2]))
        assert got.tolist() == [5, 6, 7, 0, 1]

    def test_empty_everything(self):
        assert concat_ranges(np.array([], dtype=int), np.array([], dtype=int)).size == 0

    def test_zero_length_segments_skipped(self):
        got = concat_ranges(np.array([4, 9, 2]), np.array([0, 2, 0]))
        assert got.tolist() == [9, 10]

    def test_leading_zero_length(self):
        got = concat_ranges(np.array([7, 1]), np.array([0, 3]))
        assert got.tolist() == [1, 2, 3]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            concat_ranges(np.array([1]), np.array([1, 2]))

    def test_negative_length(self):
        with pytest.raises(ValueError):
            concat_ranges(np.array([1]), np.array([-1]))

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 12)), min_size=0, max_size=30
        )
    )
    def test_matches_naive(self, pairs):
        starts = np.array([p[0] for p in pairs], dtype=np.int64)
        lengths = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = (
            np.concatenate([np.arange(s, s + l) for s, l in pairs])
            if pairs and lengths.sum()
            else np.empty(0, dtype=np.int64)
        )
        got = concat_ranges(starts, lengths)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_with_zero_length_runs(self, seed):
        rng = np.random.default_rng(seed)
        n = 400
        starts = rng.integers(0, 10**6, size=n)
        lengths = rng.integers(0, 17, size=n)
        # Runs of empty segments at the front, in the middle and at the end.
        lengths[:7] = 0
        lengths[150:190] = 0
        lengths[-5:] = 0
        expected = np.concatenate([np.arange(s, s + l) for s, l in zip(starts, lengths)])
        got = concat_ranges(starts, lengths)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_all_zero_lengths(self):
        got = concat_ranges(np.array([3, 8, 1]), np.zeros(3, dtype=np.int64))
        assert got.dtype == np.int64 and got.size == 0


class TestSegmentIds:
    def test_basic(self):
        assert segment_ids(np.array([2, 0, 3])).tolist() == [0, 0, 2, 2, 2]

    def test_empty(self):
        assert segment_ids(np.array([], dtype=int)).size == 0

    @given(lengths_strategy)
    def test_counts_recover_lengths(self, lengths):
        lengths_arr = np.asarray(lengths, dtype=np.int64)
        ids = segment_ids(lengths_arr)
        recovered = np.bincount(ids, minlength=lengths_arr.size) if ids.size else np.zeros(
            lengths_arr.size, dtype=np.int64
        )
        assert np.array_equal(recovered, lengths_arr)


class TestSegmentPositions:
    def test_basic(self):
        assert segment_positions(np.array([2, 3])).tolist() == [0, 1, 0, 1, 2]

    def test_with_empty_segments(self):
        assert segment_positions(np.array([0, 2, 0, 1])).tolist() == [0, 1, 0]

    @given(lengths_strategy)
    def test_positions_are_aranges(self, lengths):
        got = segment_positions(np.asarray(lengths, dtype=np.int64))
        expected = np.concatenate([np.arange(l) for l in lengths]) if sum(lengths) else np.empty(0)
        assert np.array_equal(got, expected)


class TestSegmentedSum:
    def test_basic(self):
        got = segmented_sum(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2, 0, 2]))
        assert got.tolist() == [3.0, 0.0, 7.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            segmented_sum(np.array([1.0]), np.array([2]))

    @given(lengths_strategy)
    def test_matches_naive(self, lengths):
        lengths_arr = np.asarray(lengths, dtype=np.int64)
        total = int(lengths_arr.sum())
        rng = np.random.default_rng(0)
        values = rng.normal(size=total)
        got = segmented_sum(values, lengths_arr)
        offset = 0
        for i, l in enumerate(lengths):
            assert got[i] == pytest.approx(values[offset : offset + l].sum(), abs=1e-12)
            offset += l
