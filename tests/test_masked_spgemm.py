"""Tests for the masked-SpGEMM extension (GraphBLAS-style C = (A B) .* M)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TileMatrix, masked_tile_spgemm, tile_spgemm
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.obs import make_obs, obs_context
from tests.conftest import random_csr


def tiled(csr: CSRMatrix) -> TileMatrix:
    return TileMatrix.from_csr(csr)


def masked_dense(a, b, m):
    return (a.to_dense() @ b.to_dense()) * (m.to_dense() != 0)


class TestMaskedCorrectness:
    def test_matches_dense_masking(self):
        a = random_csr(120, 90, 0.08, seed=201)
        b = random_csr(90, 110, 0.08, seed=202)
        m = random_csr(120, 110, 0.15, seed=203)
        res = masked_tile_spgemm(tiled(a), tiled(b), tiled(m))
        assert np.allclose(res.c.to_dense(), masked_dense(a, b, m))
        res.c.validate()

    def test_full_mask_equals_plain_spgemm(self):
        a = random_csr(80, 80, 0.1, seed=204)
        full = CSRMatrix.from_dense(np.ones((80, 80)))
        masked = masked_tile_spgemm(tiled(a), tiled(a), tiled(full))
        plain = tile_spgemm(tiled(a), tiled(a))
        assert masked.c.to_csr().allclose(plain.c.to_csr().prune(0.0))

    def test_empty_mask_gives_empty_c(self):
        a = random_csr(64, 64, 0.2, seed=205)
        empty = CSRMatrix.empty((64, 64))
        res = masked_tile_spgemm(tiled(a), tiled(a), tiled(empty))
        assert res.c.nnz == 0
        assert res.c.num_tiles == 0

    def test_mask_values_ignored_pattern_only(self):
        a = random_csr(50, 50, 0.15, seed=206)
        m = random_csr(50, 50, 0.2, seed=207)
        m_scaled = CSRMatrix(m.shape, m.indptr, m.indices, m.val * 1e6)
        r1 = masked_tile_spgemm(tiled(a), tiled(a), tiled(m))
        r2 = masked_tile_spgemm(tiled(a), tiled(a), tiled(m_scaled))
        assert r1.c.to_csr().allclose(r2.c.to_csr())

    def test_diagonal_mask_extracts_diagonal(self):
        a = random_csr(60, 60, 0.2, seed=208)
        eye = CSRMatrix.identity(60)
        res = masked_tile_spgemm(tiled(a), tiled(a), tiled(eye))
        expected = np.diag(np.diag(a.to_dense() @ a.to_dense()))
        assert np.allclose(res.c.to_dense(), expected)

    def test_mask_sparser_than_product_saves_space(self):
        a = random_csr(100, 100, 0.15, seed=209)
        m = random_csr(100, 100, 0.01, seed=210)
        plain = tile_spgemm(tiled(a), tiled(a))
        masked = masked_tile_spgemm(tiled(a), tiled(a), tiled(m))
        assert masked.c.nnz < plain.c.nnz
        assert masked.stats["masked"] is True


class TestMaskedRunsTheDriver:
    """A masked multiply is a ``tile_spgemm`` run: same ledger, one work
    record, the same step faults."""

    @pytest.fixture
    def operands(self):
        a = tiled(random_csr(80, 80, 0.1, seed=204))
        return a, tiled(CSRMatrix.from_dense(np.ones((80, 80))))

    def test_full_mask_allocates_like_plain(self, operands):
        a, full = operands
        masked = masked_tile_spgemm(a, a, full)
        plain = tile_spgemm(a, a)
        labels = [(e.kind, e.label, e.nbytes) for e in masked.alloc.events]
        assert labels == [(e.kind, e.label, e.nbytes) for e in plain.alloc.events]
        assert masked.alloc.peak_bytes == plain.alloc.peak_bytes

    def test_one_work_record(self, operands):
        a, full = operands
        obs = make_obs(metrics=True, profile=True)
        with obs_context(metrics=obs.metrics, profile=obs.profile):
            res = masked_tile_spgemm(a, a, full)
        assert obs.metrics.counter_value("tilespgemm_runs_total") == 1
        assert obs.profile.runs == 1
        assert res.stats["backend"]


class TestMaskedValidation:
    def test_wrong_mask_shape(self):
        a = random_csr(32, 32, 0.2, seed=211)
        m = random_csr(48, 48, 0.2, seed=212)
        with pytest.raises(ValueError, match="mask shape"):
            masked_tile_spgemm(tiled(a), tiled(a), tiled(m))

    def test_mismatched_inner_dims(self):
        a = random_csr(32, 32, 0.2, seed=213)
        b = random_csr(48, 48, 0.2, seed=214)
        m = random_csr(32, 48, 0.2, seed=215)
        with pytest.raises(ValueError, match="dimension"):
            masked_tile_spgemm(tiled(a), tiled(b), tiled(m))

    def test_mismatched_tile_sizes(self):
        a = random_csr(32, 32, 0.2, seed=216)
        with pytest.raises(ValueError, match="tile size"):
            masked_tile_spgemm(
                tiled(a), tiled(a), TileMatrix.from_csr(a, 8)
            )


class TestMaskedTriangleCounting:
    def test_fused_triangle_count_matches_two_phase(self):
        import networkx as nx

        from repro.apps import lower_triangle, triangle_count

        g = nx.gnp_random_graph(140, 0.07, seed=6)
        adj = CSRMatrix.from_scipy(nx.to_scipy_sparse_array(g).tocsr().astype(float))
        l = lower_triangle(adj)
        fused = masked_tile_spgemm(tiled(l), tiled(l), tiled(l))
        assert int(round(fused.c.val.sum())) == triangle_count(adj)
        assert int(round(fused.c.val.sum())) == sum(nx.triangles(g).values()) // 3


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(0, 3))
def test_property_masked_equals_dense(n, seed):
    rng = np.random.default_rng(seed * 1000 + n)
    a = CSRMatrix.from_dense(rng.random((n, n)) * (rng.random((n, n)) < 0.2))
    b = CSRMatrix.from_dense(rng.random((n, n)) * (rng.random((n, n)) < 0.2))
    m = CSRMatrix.from_dense((rng.random((n, n)) < 0.3).astype(float))
    res = masked_tile_spgemm(tiled(a), tiled(b), tiled(m))
    assert np.allclose(res.c.to_dense(), masked_dense(a, b, m), atol=1e-12)
