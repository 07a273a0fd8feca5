"""End-to-end tests of the TileSpGEMM driver against SciPy oracles."""

import numpy as np
import pytest

from repro.core import TileMatrix, tile_spgemm, tile_spgemm_from_csr
from repro.core.pairs import enumerate_pairs_expand
from repro.formats.csr import CSRMatrix
from tests.conftest import random_csr, scipy_product


def run(a_csr, b_csr, **kw):
    a = TileMatrix.from_csr(a_csr)
    b = TileMatrix.from_csr(b_csr)
    return tile_spgemm(a, b, **kw)


class TestCorrectness:
    def test_matches_scipy_random(self, small_pair):
        a, b = small_pair
        res = run(a, b)
        assert res.c.to_csr().allclose(scipy_product(a, b))

    def test_square_square(self, random_square):
        res = run(random_square, random_square)
        assert res.c.to_csr().allclose(scipy_product(random_square, random_square))
        res.c.drop_empty_tiles().validate()

    def test_aat(self, random_square):
        at = random_square.transpose()
        res = run(random_square, at)
        assert res.c.to_csr().allclose(scipy_product(random_square, at))

    def test_identity_left_right(self, random_square):
        i = CSRMatrix.identity(random_square.shape[0])
        assert run(i, random_square).c.to_csr().allclose(random_square)
        assert run(random_square, i).c.to_csr().allclose(random_square)

    def test_empty_inputs(self):
        e = CSRMatrix.empty((40, 30))
        f = CSRMatrix.empty((30, 50))
        res = run(e, f)
        assert res.c.nnz == 0
        assert res.c.shape == (40, 50)
        assert res.flops == 0

    def test_zero_times_dense(self):
        e = CSRMatrix.empty((32, 32))
        d = random_csr(32, 32, 0.5, seed=81)
        assert run(e, d).c.nnz == 0
        assert run(d, e).c.nnz == 0

    def test_rectangular_chain(self):
        a = random_csr(50, 90, 0.1, seed=82)
        b = random_csr(90, 31, 0.1, seed=83)
        res = run(a, b)
        assert res.c.shape == (50, 31)
        assert res.c.to_csr().allclose(scipy_product(a, b))

    def test_numerical_cancellation_kept_structurally(self):
        # A row that cancels exactly: structure keeps the entry, value is 0.
        a = CSRMatrix(
            (2, 2),
            np.array([0, 2, 2]),
            np.array([0, 1]),
            np.array([1.0, 1.0]),
        )
        b = CSRMatrix(
            (2, 1),
            np.array([0, 1, 2]),
            np.array([0, 0]),
            np.array([1.0, -1.0]),
        )
        res = run(a, b)
        c = res.c.to_csr()
        assert c.nnz == 1  # structural nonzero survives
        assert c.val[0] == 0.0

    def test_explicit_zeros_in_input(self):
        a = random_csr(60, 60, 0.1, seed=84, explicit_zeros=True)
        res = run(a, a)
        assert res.c.to_csr().allclose(scipy_product(a, a))

    def test_dense_small_matrix(self):
        a = CSRMatrix.from_dense(np.random.default_rng(85).normal(size=(20, 20)))
        res = run(a, a)
        assert np.allclose(res.c.to_dense(), a.to_dense() @ a.to_dense())

    @pytest.mark.parametrize("tile_size", [4, 8, 16])
    def test_tile_size_variants(self, tile_size):
        a_csr = random_csr(70, 70, 0.1, seed=86)
        a = TileMatrix.from_csr(a_csr, tile_size)
        res = tile_spgemm(a, a)
        assert res.c.to_csr().allclose(scipy_product(a_csr, a_csr))

    def test_structured_suite_matrices(self):
        from repro.matrices import generators

        for m in (
            generators.banded(200, 6, seed=1).to_csr(),
            generators.stencil_2d(15, 14).to_csr(),
            generators.powerlaw(300, 4.0, seed=2).to_csr(),
            generators.block_band(128, 32, 0, seed=3).to_csr(),
        ):
            res = run(m, m)
            assert res.c.to_csr().allclose(scipy_product(m, m)), m.shape


class TestConfigurations:
    def test_all_paths_agree(self, small_pair):
        a, b = small_pair
        base = run(a, b).c.to_csr()
        for kw in (
            {"force_accumulator": "sparse"},
            {"force_accumulator": "dense"},
            {"tnnz": 0},
            {"tnnz": 1000},
            {"keep_empty_tiles": False},
        ):
            assert run(a, b, **kw).c.to_csr().allclose(base), kw

    def test_mismatched_dims_rejected(self):
        a = TileMatrix.from_csr(random_csr(32, 32, 0.2, seed=87))
        b = TileMatrix.from_csr(random_csr(48, 48, 0.2, seed=88))
        with pytest.raises(ValueError):
            tile_spgemm(a, b)

    def test_mismatched_tile_sizes_rejected(self):
        a = TileMatrix.from_csr(random_csr(32, 32, 0.2, seed=89), 16)
        b = TileMatrix.from_csr(random_csr(32, 32, 0.2, seed=90), 8)
        with pytest.raises(ValueError):
            tile_spgemm(a, b)

    def test_keep_empty_tiles_flag(self):
        # Cancellation-heavy input: some candidate tiles end up empty.
        a = CSRMatrix(
            (16, 32),
            np.concatenate([np.array([0, 2]), np.full(15, 2)]),
            np.array([16, 17]),
            np.array([1.0, 1.0]),
        )
        b = CSRMatrix(
            (32, 16),
            np.concatenate([np.zeros(17, dtype=np.int64), np.array([1, 2]), np.full(14, 2)]),
            np.array([0, 0]),
            np.array([1.0, -1.0]),
        )
        kept = run(a, b, keep_empty_tiles=True)
        dropped = run(a, b, keep_empty_tiles=False)
        assert kept.c.to_csr().allclose(dropped.c.to_csr())
        assert dropped.c.num_tiles <= kept.c.num_tiles


class TestResultMetadata:
    def test_phases_timed(self, small_pair):
        a, b = small_pair
        res = run(a, b)
        for phase in ("step1", "step2", "step3", "malloc"):
            assert phase in res.timer.seconds

    def test_flops_match_row_count(self, small_pair):
        from repro.baselines.base import flops_of_product

        a, b = small_pair
        res = run(a, b)
        assert res.flops == flops_of_product(a, b)

    def test_stats_consistency(self, small_pair):
        a, b = small_pair
        res = run(a, b)
        s = res.stats
        assert s["nnz_c"] == res.c.nnz
        assert s["num_c_tiles"] == res.c.num_tiles
        # Every matched pair counts, dead ones too, whatever pairs the driver holds.
        matched = enumerate_pairs_expand(TileMatrix.from_csr(a), TileMatrix.from_csr(b))
        assert np.array_equal(s["pairs_per_tile"], np.diff(matched.pair_ptr))
        assert res.pairs.num_pairs <= matched.num_pairs
        assert int(np.sum(s["products_per_tile"])) == s["num_products"]
        assert s["sparse_tiles"] + s["dense_tiles"] == s["num_c_tiles"]

    def test_allocations_recorded(self, small_pair):
        a, b = small_pair
        res = run(a, b)
        labels = {e.label for e in res.alloc.events}
        assert {"tilePtr_C", "tileColIdx_C", "tileNnz_C", "mask_C", "val_C"} <= labels
        assert res.alloc.peak_bytes > 0

    def test_gflops_positive(self, small_pair):
        a, b = small_pair
        res = run(a, b)
        assert res.gflops() > 0
        assert res.gflops(1.0) == pytest.approx(res.flops / 1e9)

    def test_from_csr_records_conversion(self, small_pair):
        a, b = small_pair
        res = tile_spgemm_from_csr(a, b)
        assert "format_conversion" in res.timer.seconds
        assert res.c.to_csr().allclose(scipy_product(a, b))
