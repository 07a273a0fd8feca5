"""Tests for the individual TileSpGEMM steps and their kernels."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.step3 as step3_module
from repro.core.intersect import (
    binary_search_cost,
    intersect,
    intersect_binary,
    intersect_merge,
    merge_cost,
)
from repro.core.pairs import TilePairs, enumerate_pairs_expand, enumerate_pairs_intersect
from repro.core.step1 import step1_tile_layout, symbolic_spgemm_pattern
from repro.core.step2 import step2_symbolic
from repro.core.step3 import c_indices_from_masks, step3_numeric
from repro.core.tile_matrix import TileMatrix
from tests.conftest import random_csr, scipy_product
from tests.corpus import CORPUS

sorted_sets = st.lists(st.integers(0, 60), max_size=25).map(
    lambda xs: np.asarray(sorted(set(xs)), dtype=np.int64)
)


class TestIntersect:
    @given(sorted_sets, sorted_sets)
    def test_binary_matches_merge(self, a, b):
        pa1, pb1 = intersect_binary(a, b)
        pa2, pb2 = intersect_merge(a, b)
        assert np.array_equal(pa1, pa2)
        assert np.array_equal(pb1, pb2)

    @given(sorted_sets, sorted_sets)
    def test_positions_recover_intersection(self, a, b):
        pa, pb = intersect_binary(a, b)
        expected = sorted(set(a.tolist()) & set(b.tolist()))
        assert a[pa].tolist() == expected
        assert b[pb].tolist() == expected

    def test_empty_inputs(self):
        e = np.empty(0, dtype=np.int64)
        for x, y in [(e, e), (e, np.array([1])), (np.array([1]), e)]:
            pa, pb = intersect_binary(x, y)
            assert pa.size == 0 and pb.size == 0

    def test_dispatch(self):
        a, b = np.array([1, 3]), np.array([3, 4])
        for method in ("binary", "merge"):
            pa, pb = intersect(a, b, method=method)
            assert a[pa].tolist() == [3]
        with pytest.raises(ValueError):
            intersect(a, b, method="nope")

    def test_binary_cheaper_on_skewed_lists(self):
        # One short list against a long one: the paper's reason to prefer
        # binary search over the serial merge on GPUs.
        len_a, len_b = np.array([4.0]), np.array([1000.0])
        assert binary_search_cost(len_a, len_b)[0] < merge_cost(len_a, len_b)[0]

    def test_merge_cost_linear(self):
        assert merge_cost(np.array([10.0]), np.array([20.0]))[0] == 30.0


def assert_same_pairs(join: TilePairs, ref: TilePairs) -> None:
    """Every field equal, the intersection lengths ``len_a``/``len_b`` included."""
    for f in dataclasses.fields(TilePairs):
        assert np.array_equal(getattr(join, f.name), getattr(ref, f.name)), f.name


def corpus_operands(name):
    case = CORPUS[name]
    return TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b)


class TestPairs:
    @pytest.mark.parametrize("method", ["binary", "merge"])
    def test_expand_equals_intersect(self, method):
        a = TileMatrix.from_csr(random_csr(130, 110, 0.06, seed=51))
        b = TileMatrix.from_csr(random_csr(110, 150, 0.06, seed=52))
        assert_same_pairs(enumerate_pairs_expand(a, b),
                          enumerate_pairs_intersect(a, b, method=method))

    def test_pairs_reference_valid_tiles(self):
        a = TileMatrix.from_csr(random_csr(100, 100, 0.05, seed=53))
        p = enumerate_pairs_expand(a, a)
        slots = p.pair_c_slot()
        # Every pair's A tile sits in the C tile's row; B tile in its column.
        assert np.array_equal(a.tile_rowidx()[p.pair_a], p.c_tilerow[slots])
        assert np.array_equal(a.tilecolidx[p.pair_b], p.c_tilecol[slots])
        # And the contraction indices match: col(A tile) == row(B tile).
        assert np.array_equal(a.tilecolidx[p.pair_a], a.tile_rowidx()[p.pair_b])

    def test_dimension_mismatch(self):
        a = TileMatrix.from_csr(random_csr(32, 32, 0.2, seed=54))
        b = TileMatrix.from_csr(random_csr(64, 64, 0.2, seed=55))
        with pytest.raises(ValueError):
            enumerate_pairs_expand(a, b)

    def test_empty_product(self):
        a = TileMatrix.empty((40, 40))
        p = enumerate_pairs_expand(a, a)
        assert p.num_c_tiles == 0
        assert p.num_pairs == 0


class TestReferenceKernelsOnCorpus:
    """The paper's kernels find the driver's tile-pair join on every corpus case."""

    @pytest.mark.parametrize("method", ["binary", "merge"])
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_intersect_returns_the_join(self, name, method):
        a, b = corpus_operands(name)
        assert_same_pairs(enumerate_pairs_expand(a, b),
                          enumerate_pairs_intersect(a, b, method=method))

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_hash_layout_is_the_join_tiles(self, name):
        a, b = corpus_operands(name)
        join = enumerate_pairs_expand(a, b)
        layout = step1_tile_layout(a.tile_pattern_csr(), b.tile_pattern_csr(), "hash")
        assert np.array_equal(layout.tile_rowidx(), join.c_tilerow)
        assert np.array_equal(layout.tilecolidx, join.c_tilecol)
        assert layout.tile_flops == join.num_pairs


class TestStep1:
    def test_hash_equals_expand(self, small_pair):
        a, b = small_pair
        at, bt = TileMatrix.from_csr(a), TileMatrix.from_csr(b)
        l1 = step1_tile_layout(at.tile_pattern_csr(), bt.tile_pattern_csr(), "expand")
        l2 = step1_tile_layout(at.tile_pattern_csr(), bt.tile_pattern_csr(), "hash")
        assert np.array_equal(l1.tileptr, l2.tileptr)
        assert np.array_equal(l1.tilecolidx, l2.tilecolidx)
        assert l1.tile_flops == l2.tile_flops

    def test_matches_scipy_pattern(self, small_pair):
        a, b = small_pair
        indptr, indices, _ = symbolic_spgemm_pattern(a, b, method="expand")
        pat = (a.to_scipy() != 0).astype(float) @ (b.to_scipy() != 0).astype(float)
        pat = pat.tocsr()
        pat.sort_indices()
        assert np.array_equal(indptr, pat.indptr)
        assert np.array_equal(indices, pat.indices)

    def test_unknown_method(self, small_pair):
        a, b = small_pair
        with pytest.raises(ValueError):
            symbolic_spgemm_pattern(a, b, method="quantum")

    def test_flops_counts_pattern_products(self):
        from repro.formats.csr import CSRMatrix

        i = CSRMatrix.identity(8)
        _, _, flops = symbolic_spgemm_pattern(i, i, method="expand")
        assert flops == 8


class TestStep2:
    def _setup(self, seed=61, n=120, density=0.07):
        a = TileMatrix.from_csr(random_csr(n, n, density, seed=seed))
        b = TileMatrix.from_csr(random_csr(n, n, density, seed=seed + 1))
        pairs = enumerate_pairs_expand(a, b)
        return a, b, pairs

    def test_masks_match_structural_product(self):
        a, b, pairs = self._setup()
        sym = step2_symbolic(a, b, pairs)
        # Build the structural product densely and compare tile masks.
        pa = (a.to_dense() != 0).astype(float)
        pb = (b.to_dense() != 0).astype(float)
        pc = (pa @ pb) > 0
        for t in range(pairs.num_c_tiles):
            ti, tj = pairs.c_tilerow[t], pairs.c_tilecol[t]
            block = pc[ti * 16 : (ti + 1) * 16, tj * 16 : (tj + 1) * 16]
            for r in range(block.shape[0]):
                expected = sum(1 << c for c in np.flatnonzero(block[r]))
                assert int(sym.mask[t, r]) == expected

    def test_nnz_matches_structural_product(self):
        a, b, pairs = self._setup(seed=62)
        sym = step2_symbolic(a, b, pairs)
        pa = (a.to_dense() != 0).astype(float)
        pb = (b.to_dense() != 0).astype(float)
        assert sym.nnz == int(((pa @ pb) > 0).sum())

    def test_symbolic_ops_counted(self):
        a, b, pairs = self._setup(seed=63)
        sym = step2_symbolic(a, b, pairs)
        expected = int(a.tile_nnz_counts()[pairs.pair_a].sum())
        assert sym.symbolic_ops == expected

    def test_tile_size_mismatch_rejected(self):
        a = TileMatrix.from_csr(random_csr(32, 32, 0.2, seed=64), 16)
        b = TileMatrix.from_csr(random_csr(32, 32, 0.2, seed=65), 8)
        with pytest.raises(ValueError):
            step2_symbolic(a, b, enumerate_pairs_expand(a, a))


class TestStep3:
    def _full(self, seed, force=None, chunk=1 << 22, tnnz=192):
        a_csr = random_csr(140, 140, 0.08, seed=seed)
        b_csr = random_csr(140, 140, 0.08, seed=seed + 1)
        a = TileMatrix.from_csr(a_csr)
        b = TileMatrix.from_csr(b_csr)
        pairs = enumerate_pairs_expand(a, b)
        sym = step2_symbolic(a, b, pairs)
        with mock.patch.object(step3_module, "CHUNK_PRODUCTS", chunk):
            num = step3_numeric(a, b, pairs, sym, tnnz=tnnz, force_accumulator=force)
        return a_csr, b_csr, pairs, sym, num

    def test_sparse_equals_dense_accumulator(self):
        _, _, _, sym1, num_sparse = self._full(71, force="sparse")
        _, _, _, sym2, num_dense = self._full(71, force="dense")
        assert np.array_equal(num_sparse.rowidx, num_dense.rowidx)
        assert np.array_equal(num_sparse.colidx, num_dense.colidx)
        assert num_sparse.val.tobytes() == num_dense.val.tobytes()
        assert num_sparse.dense_tiles == 0
        assert num_dense.sparse_tiles == 0

    def test_chunking_invariant(self):
        _, _, _, _, num_big = self._full(72, chunk=1 << 22)
        _, _, _, _, num_small = self._full(72, chunk=64)
        assert num_big.val.tobytes() == num_small.val.tobytes()

    def test_adaptive_threshold_splits_tiles(self):
        # tnnz=0 forces everything dense; huge tnnz forces everything sparse.
        _, _, pairs, _, num0 = self._full(73, tnnz=0)
        assert num0.sparse_tiles == 0
        assert num0.dense_tiles == pairs.num_c_tiles
        _, _, _, _, num_inf = self._full(73, tnnz=10**9)
        assert num_inf.dense_tiles == 0

    def test_bad_force_value(self):
        with pytest.raises(ValueError):
            self._full(74, force="wat")

    def test_product_count_is_half_flops(self):
        from repro.baselines.base import flops_of_product

        a_csr, b_csr, _, _, num = self._full(75)
        assert num.num_products * 2 == flops_of_product(a_csr, b_csr)

    def test_c_indices_from_masks_sorted_per_tile(self):
        _, _, pairs, sym, num = self._full(76)
        rowidx, colidx = c_indices_from_masks(sym, 16)
        key = rowidx.astype(np.int64) * 16 + colidx
        tile_of = np.repeat(np.arange(pairs.num_c_tiles), sym.tile_nnz_counts)
        same = tile_of[1:] == tile_of[:-1]
        assert np.all(key[1:][same] > key[:-1][same])
