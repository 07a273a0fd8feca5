"""The warp-semantics interpreter must agree with the vectorised pipeline."""

import numpy as np
import pytest

from repro.core import TileMatrix, tile_spgemm
from repro.core.pairs import enumerate_pairs_expand, live_entries
from repro.core.step2 import step2_symbolic
from repro.core.warp_reference import warp_step2_symbolic, warp_step3_numeric
from repro.formats.csr import CSRMatrix
from tests.conftest import random_csr
from tests.corpus import CORPUS


@pytest.fixture(scope="module", params=[0, 1, 2])
def setup(request):
    seeds = {0: (60, 0.12), 1: (90, 0.06), 2: (48, 0.3)}
    n, d = seeds[request.param]
    a = TileMatrix.from_csr(random_csr(n, n, d, seed=280 + request.param))
    b = TileMatrix.from_csr(random_csr(n, n, d, seed=290 + request.param))
    pairs = enumerate_pairs_expand(a, b)
    return a, b, pairs


class TestWarpStep2:
    def test_masks_identical_to_vectorised(self, setup):
        a, b, pairs = setup
        warp_masks, _ = warp_step2_symbolic(a, b, pairs)
        sym = step2_symbolic(a, b, pairs)
        assert np.array_equal(warp_masks, sym.mask)

    def test_or_ops_equal_symbolic_op_count(self, setup):
        a, b, pairs = setup
        _, stats = warp_step2_symbolic(a, b, pairs)
        sym = step2_symbolic(a, b, pairs)
        assert stats.mask_or_ops == sym.symbolic_ops

    def test_wave_count_matches_ceil_formula(self, setup):
        a, b, pairs = setup
        _, stats = warp_step2_symbolic(a, b, pairs)
        a_counts = a.tile_nnz_counts()
        expected = int(np.ceil(a_counts[pairs.pair_a] / 32.0).sum())
        assert stats.waves == expected


def _hypersparse():
    """~1 nonzero per tile: most pairs' A column misses every B row."""
    a = TileMatrix.from_csr(random_csr(480, 480, 0.0015, seed=297))
    b = TileMatrix.from_csr(random_csr(480, 480, 0.0015, seed=298))
    return a, b, enumerate_pairs_expand(a, b)


def _dead_pair_frac(a, b, pairs):
    live = live_entries(a, b, pairs)
    return 1.0 - np.count_nonzero(np.diff(live.entry_ptr)) / pairs.num_pairs


class TestLiveEntryOr:
    """Step 2 ORs only the live entries; the warp interpreter ORs all."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_masks_equal_full_or(self, name):
        case = CORPUS[name]
        a, b = TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b)
        pairs = enumerate_pairs_expand(a, b)
        sym = step2_symbolic(a, b, pairs, live=live_entries(a, b, pairs))
        warp_masks, _ = warp_step2_symbolic(a, b, pairs)
        assert sym.mask.tobytes() == warp_masks.astype(sym.mask.dtype).tobytes()

    def test_hypersparse_masks_equal_full_or(self):
        a, b, pairs = _hypersparse()
        assert _dead_pair_frac(a, b, pairs) > 0.8
        sym = step2_symbolic(a, b, pairs, live=live_entries(a, b, pairs))
        warp_masks, stats = warp_step2_symbolic(a, b, pairs)
        assert sym.mask.tobytes() == warp_masks.astype(sym.mask.dtype).tobytes()
        assert sym.symbolic_ops == stats.mask_or_ops

    def test_zero_pairs(self):
        # A's only tile column (0) meets no tile row of B (B lives in row 1).
        dense_a = np.zeros((32, 32))
        dense_a[0, 0] = 1.0
        dense_b = np.zeros((32, 32))
        dense_b[20, 3] = 1.0
        a = TileMatrix.from_csr(CSRMatrix.from_dense(dense_a))
        b = TileMatrix.from_csr(CSRMatrix.from_dense(dense_b))
        pairs = enumerate_pairs_expand(a, b)
        assert pairs.num_pairs == 0
        live = live_entries(a, b, pairs)
        assert live.a_idx.size == live.pair_of.size == live.row_len.size == 0
        assert live.entry_ptr.tolist() == [0] and live.csum.tolist() == [0]
        sym = step2_symbolic(a, b, pairs, live=live)
        assert sym.mask.shape == (0, a.tile_size) and sym.symbolic_ops == 0

    def test_all_pairs_dead(self):
        # A's nonzero sits in column 0 of its tile, B's in row 1 of its tile:
        # the pair exists but no A column meets a nonempty B row.
        dense_a = np.zeros((16, 16))
        dense_a[3, 0] = 2.0
        dense_b = np.zeros((16, 16))
        dense_b[1, 5] = 3.0
        a = TileMatrix.from_csr(CSRMatrix.from_dense(dense_a))
        b = TileMatrix.from_csr(CSRMatrix.from_dense(dense_b))
        pairs = enumerate_pairs_expand(a, b)
        assert pairs.num_pairs == 1
        live = live_entries(a, b, pairs)
        assert live.a_idx.size == 0
        assert live.entry_ptr.tolist() == [0, 0] and live.csum.tolist() == [0, 0]
        sym = step2_symbolic(a, b, pairs, live=live)
        assert not sym.mask.any() and sym.symbolic_ops == 1
        result = tile_spgemm(a, b)
        assert result.stats["num_products"] == 0 and result.c.nnz == 0


class TestWarpStep3:
    def test_values_identical_to_vectorised(self, setup):
        a, b, pairs = setup
        sym = step2_symbolic(a, b, pairs)
        dense_c, _ = warp_step3_numeric(a, b, pairs, sym.mask)
        result = tile_spgemm(a, b)
        # Compact the warp interpreter's dense tiles through the masks and
        # compare against the pipeline's value array.
        for t in range(pairs.num_c_tiles):
            lo, hi = sym.tilennz[t], sym.tilennz[t + 1]
            r = result.c.rowidx[lo:hi].astype(int)
            c = result.c.colidx[lo:hi].astype(int)
            assert np.allclose(dense_c[t, r, c], result.c.val[lo:hi])

    def test_product_count_matches_flops(self, setup):
        a, b, pairs = setup
        sym = step2_symbolic(a, b, pairs)
        _, stats = warp_step3_numeric(a, b, pairs, sym.mask)
        result = tile_spgemm(a, b)
        assert stats.products == result.stats["num_products"]

    def test_conflicts_bounded_by_products(self, setup):
        a, b, pairs = setup
        sym = step2_symbolic(a, b, pairs)
        _, stats = warp_step3_numeric(a, b, pairs, sym.mask)
        assert 0 <= stats.atomic_conflicts <= stats.products
