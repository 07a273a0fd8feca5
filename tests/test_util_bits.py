"""Tests for the bit-mask utilities underlying the tiled format."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.tile_matrix import TileMatrix
from repro.util.bits import (
    nth_set_bit,
    popcount16,
    prefix_popcount,
)

#: ``bin(m).count("1")`` of every 16-bit mask ``m``.
_BIN_COUNT = np.array([bin(m).count("1") for m in range(1 << 16)], dtype=np.int64)


class TestPopcount:
    def test_every_mask_matches_bin_count(self):
        got = popcount16(np.arange(1 << 16, dtype=np.uint16))
        assert got.dtype == np.uint8
        assert np.array_equal(got, _BIN_COUNT)

    def test_known_values(self):
        masks = np.array([0, 0xFFFF, 0b1010101010101010, 1], dtype=np.uint16)
        assert popcount16(masks).tolist() == [0, 16, 8, 1]

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_matches_python_bit_count(self, value):
        assert int(popcount16(np.array([value]))[0]) == bin(value).count("1")

    def test_vectorised(self):
        masks = np.array([0, 1, 3, 0xFFFF, 0x8000], dtype=np.uint16)
        assert popcount16(masks).tolist() == [0, 1, 2, 16, 1]

    def test_preserves_shape(self):
        masks = np.arange(12, dtype=np.uint16).reshape(3, 4)
        assert popcount16(masks).shape == (3, 4)


class TestPrefixPopcount:
    @given(
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=15),
    )
    def test_matches_manual_rank(self, mask, col):
        expected = bin(mask & ((1 << col) - 1)).count("1")
        assert int(prefix_popcount(np.array([mask]), np.array([col]))[0]) == expected

    def test_column_zero_is_always_zero(self):
        masks = np.arange(0, 1 << 16, 997, dtype=np.uint32)
        ranks = prefix_popcount(masks, np.zeros_like(masks))
        assert not ranks.any()

    def test_rank_is_position_in_compacted_row(self):
        # mask 0b0110_0101: set bits at columns 0, 2, 5, 6.
        mask = 0b01100101
        cols = np.array([0, 2, 5, 6])
        ranks = prefix_popcount(np.full(4, mask), cols)
        assert ranks.tolist() == [0, 1, 2, 3]

    def test_every_mask_and_column_matches_naive_rank(self):
        masks = np.arange(1 << 16, dtype=np.uint16)
        cols = np.arange(16, dtype=np.uint8)
        below = (1 << np.arange(16)) - 1
        expected = _BIN_COUNT[masks[:, None].astype(np.int64) & below[None, :]]
        got = prefix_popcount(masks[:, None], cols[None, :])
        assert got.dtype == np.uint8
        assert got.shape == (1 << 16, 16)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mask_dtype", [np.uint16, np.uint32, np.int64])
    @pytest.mark.parametrize("col_dtype", [np.uint8, np.uint32, np.int64])
    def test_input_dtypes_agree(self, mask_dtype, col_dtype):
        rng = np.random.default_rng(17)
        masks = rng.integers(0, 1 << 16, size=500)
        cols = rng.integers(0, 16, size=500)
        ref = prefix_popcount(masks.astype(np.uint16), cols.astype(np.uint8))
        got = prefix_popcount(masks.astype(mask_dtype), cols.astype(col_dtype))
        assert np.array_equal(got, ref)


class TestNthSetBit:
    @given(st.integers(min_value=1, max_value=(1 << 16) - 1))
    def test_enumerates_set_bits_in_order(self, mask):
        pc = bin(mask).count("1")
        got = nth_set_bit(np.full(pc, mask), np.arange(pc))
        expected = [c for c in range(16) if mask & (1 << c)]
        assert got.tolist() == expected

    def test_out_of_range_rank_returns_sentinel(self):
        assert int(nth_set_bit(np.array([0b1]), np.array([1]))[0]) == 255

    def test_inverse_of_prefix_popcount(self):
        mask = 0b1011001110001011
        cols = np.array([c for c in range(16) if mask & (1 << c)])
        ranks = prefix_popcount(np.full(cols.size, mask), cols)
        back = nth_set_bit(np.full(cols.size, mask), ranks)
        assert np.array_equal(back, cols)


def rowptr_of(masks):
    """The tiled format's row pointers of 16x16 tiles with these row masks."""
    return TileMatrix._rowptr_from_mask(masks, 16)


class TestMaskHelpers:
    def test_masks_to_rowptr_simple(self):
        masks = np.zeros((1, 16), dtype=np.uint16)
        masks[0, 0] = 0b111  # 3 nonzeros in row 0
        masks[0, 2] = 0b1  # 1 nonzero in row 2
        ptr = rowptr_of(masks)
        assert ptr[0].tolist() == [0, 3, 3, 4] + [4] * 12

    def test_masks_to_rowptr_full_tile(self):
        masks = np.full((1, 16), 0xFFFF, dtype=np.uint16)
        ptr = rowptr_of(masks)
        assert ptr.dtype == np.uint8
        assert ptr[0].tolist() == list(range(0, 256, 16))

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=16, max_size=16))
    def test_rowptr_matches_cumulative_popcount(self, row_masks):
        masks = np.array([row_masks], dtype=np.uint16)
        if int(popcount16(masks).astype(int).sum()) > 256:
            return  # cannot exceed one tile's capacity
        ptr = rowptr_of(masks)[0].astype(int)
        expected = np.concatenate([[0], np.cumsum([bin(m).count("1") for m in row_masks])[:-1]])
        assert np.array_equal(ptr, expected)
