"""Adversarial edge cases across the whole SpGEMM stack."""

import numpy as np
import pytest

from repro.baselines import available_algorithms, get_algorithm
from repro.core import TileMatrix, tile_spgemm
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from tests.conftest import random_csr, scipy_product

METHODS = [m for m in available_algorithms() if m != "tsparse"]


def dense_of(entries, shape):
    d = np.zeros(shape)
    for r, c, v in entries:
        d[r, c] += v
    return d


class TestDegenerateShapes:
    def test_one_by_one(self):
        a = CSRMatrix.from_dense(np.array([[3.0]]))
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a))
        assert res.c.to_dense()[0, 0] == 9.0

    def test_row_vector_times_column_vector(self):
        a = CSRMatrix.from_dense(np.arange(1.0, 6.0).reshape(1, 5))
        b = CSRMatrix.from_dense(np.arange(1.0, 6.0).reshape(5, 1))
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(b))
        assert res.c.to_dense()[0, 0] == 55.0

    def test_column_times_row_outer_product(self):
        a = CSRMatrix.from_dense(np.array([[1.0], [2.0], [0.0]]))
        b = CSRMatrix.from_dense(np.array([[3.0, 0.0, 4.0]]))
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(b))
        assert np.allclose(res.c.to_dense(), a.to_dense() @ b.to_dense())

    def test_dimension_17_crosses_tile_boundary(self):
        # 17 = one full tile + one element: boundary handling everywhere.
        a = random_csr(17, 17, 0.4, seed=181)
        for method in METHODS:
            assert get_algorithm(method)(a, a).c.allclose(scipy_product(a, a)), method

    @pytest.mark.parametrize("n", [15, 16, 31, 32, 33])
    def test_tile_boundary_sizes(self, n):
        a = random_csr(n, n, 0.3, seed=182 + n)
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a))
        assert res.c.to_csr().allclose(scipy_product(a, a))


class TestSparsityExtremes:
    def test_single_nonzero_in_last_position(self):
        n = 40
        a = COOMatrix((n, n), np.array([n - 1]), np.array([n - 1]), np.array([2.0])).to_csr()
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a))
        assert res.c.to_dense()[n - 1, n - 1] == 4.0
        assert res.c.nnz == 1

    def test_fully_dense_inputs(self):
        rng = np.random.default_rng(183)
        a = CSRMatrix.from_dense(rng.normal(size=(33, 33)))
        for method in ("tilespgemm", "speck", "nsparse_hash"):
            res = get_algorithm(method)(a, a)
            assert np.allclose(res.c.to_dense(), a.to_dense() @ a.to_dense()), method

    def test_diagonal_only(self):
        d = CSRMatrix.from_dense(np.diag(np.arange(1.0, 51.0)))
        res = tile_spgemm(TileMatrix.from_csr(d), TileMatrix.from_csr(d))
        assert np.allclose(np.diag(res.c.to_dense()), np.arange(1.0, 51.0) ** 2)

    def test_anti_diagonal(self):
        # Anti-diagonal hits a different tile of B for every nonzero of A.
        n = 48
        d = np.fliplr(np.diag(np.arange(1.0, n + 1.0)))
        a = CSRMatrix.from_dense(d)
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a))
        assert np.allclose(res.c.to_dense(), d @ d)

    def test_single_dense_row(self):
        # One full row, everything else empty: one-warp-task worst case.
        n = 64
        dense = np.zeros((n, n))
        dense[5, :] = np.arange(1.0, n + 1.0)
        dense[:, 7] = 2.0
        a = CSRMatrix.from_dense(dense)
        for method in METHODS:
            assert np.allclose(
                get_algorithm(method)(a, a).c.to_dense(), dense @ dense
            ), method

    def test_empty_rows_and_columns_interleaved(self):
        entries = [(0, 3, 1.0), (4, 0, 2.0), (4, 7, 3.0), (7, 4, 4.0)]
        d = dense_of(entries, (8, 8))
        a = CSRMatrix.from_dense(d)
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a))
        assert np.allclose(res.c.to_dense(), d @ d)


class TestNumericalEdges:
    def test_large_magnitude_values(self):
        a = random_csr(50, 50, 0.1, seed=184)
        big = CSRMatrix(a.shape, a.indptr, a.indices, a.val * 1e150)
        res = tile_spgemm(TileMatrix.from_csr(big), TileMatrix.from_csr(big))
        ref = big.to_dense() @ big.to_dense()
        assert np.allclose(res.c.to_dense(), ref, rtol=1e-10)

    def test_tiny_magnitude_values(self):
        a = random_csr(50, 50, 0.1, seed=185)
        small = CSRMatrix(a.shape, a.indptr, a.indices, a.val * 1e-150)
        res = tile_spgemm(TileMatrix.from_csr(small), TileMatrix.from_csr(small))
        assert np.allclose(res.c.to_dense(), small.to_dense() @ small.to_dense())

    def test_mixed_signs_mass_cancellation(self):
        # A checkerboard of +1/-1 squared has many exact cancellations;
        # structure keeps them, values must be exactly right.
        n = 32
        d = np.fromfunction(lambda i, j: ((i + j) % 2) * 2.0 - 1.0, (n, n))
        a = CSRMatrix.from_dense(d)
        for method in ("tilespgemm", "bhsparse_esc", "nsparse_hash"):
            res = get_algorithm(method)(a, a)
            assert np.allclose(res.c.to_dense(), d @ d), method

    def test_accumulation_order_stability(self):
        # Many duplicates in one output entry: results must agree across
        # accumulator strategies within floating tolerance.
        k = 200
        a = COOMatrix(
            (1, k), np.zeros(k, dtype=np.int64), np.arange(k), np.full(k, 0.1)
        ).to_csr()
        b = COOMatrix(
            (k, 1), np.arange(k), np.zeros(k, dtype=np.int64), np.full(k, 0.1)
        ).to_csr()
        vals = set()
        for method in METHODS:
            c = get_algorithm(method)(a, b).c
            assert c.nnz == 1
            vals.add(round(float(c.val[0]), 9))
        assert vals == {round(k * 0.01, 9)}


class TestTileStructureEdges:
    def test_c_tile_with_exactly_tnnz_nonzeros(self):
        # A tile with exactly 192 nonzeros sits on the accumulator
        # threshold; both selections must agree.
        rng = np.random.default_rng(186)
        d = np.zeros((16, 16))
        pos = rng.choice(256, size=192, replace=False)
        d[pos // 16, pos % 16] = 1.0
        a = CSRMatrix.from_dense(d)
        t = TileMatrix.from_csr(a)
        r1 = tile_spgemm(t, t, force_accumulator="sparse")
        r2 = tile_spgemm(t, t, force_accumulator="dense")
        r3 = tile_spgemm(t, t)  # adaptive
        assert r1.c.val.tobytes() == r2.c.val.tobytes()
        assert r1.c.val.tobytes() == r3.c.val.tobytes()

    def test_full_256_nonzero_tiles(self):
        d = np.ones((32, 32))
        a = CSRMatrix.from_dense(d)
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a))
        assert np.allclose(res.c.to_dense(), d @ d)
        assert res.stats["dense_tiles"] == 4

    def test_empty_candidate_tiles_from_cancellation_are_valid(self):
        # Construct A, B whose product has a candidate tile that is
        # structurally non-empty at tile level but receives no nonzeros:
        # A's tile row and B's tile column exist, but A's nonzero columns
        # miss B's nonzero rows inside the shared tile.
        a = COOMatrix((16, 32), np.array([0]), np.array([16]), np.array([1.0])).to_csr()
        b = COOMatrix((32, 16), np.array([20]), np.array([0]), np.array([1.0])).to_csr()
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(b))
        assert res.c.nnz == 0
        assert res.c.num_tiles == 1  # the empty candidate tile is kept
        compact = res.c.drop_empty_tiles()
        assert compact.num_tiles == 0
        compact.validate()
