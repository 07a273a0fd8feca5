"""Failure injection: malformed, adversarial and non-finite inputs.

A production library must either produce a correct result or raise a
clear error — never return silent garbage.  These tests feed every layer
corrupted or extreme inputs and pin down which of the two happens.
"""

import numpy as np
import pytest

from repro.baselines import get_algorithm
from repro.core import TileMatrix, tile_spgemm
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from tests.conftest import random_csr


class TestNonFiniteValues:
    """NaN/inf propagate through SpGEMM like any arithmetic — they must
    appear in the result, not vanish or crash."""

    def test_nan_propagates(self):
        d = np.zeros((20, 20))
        d[2, 3] = np.nan
        d[3, 5] = 1.0
        a = CSRMatrix.from_dense(d)
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a))
        assert np.isnan(res.c.to_dense()[2, 5])

    def test_inf_propagates(self):
        d = np.zeros((20, 20))
        d[1, 2] = np.inf
        d[2, 4] = 2.0
        a = CSRMatrix.from_dense(d)
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a))
        assert np.isinf(res.c.to_dense()[1, 4])

    def test_inf_times_zero_structural(self):
        # inf * 0 never happens structurally (zeros are not stored), so no
        # spurious NaNs appear where the paper's kernels would not produce
        # them either.
        d = np.zeros((8, 8))
        d[0, 1] = np.inf
        a = CSRMatrix.from_dense(d)
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a))
        assert not np.isnan(res.c.to_dense()).any()


class TestMalformedCSR:
    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))

    def test_wrong_indptr_length_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix((3, 3), np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_val_indices_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix((1, 3), np.array([0, 2]), np.array([0, 1]), np.array([1.0]))

    def test_negative_column_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix((1, 3), np.array([0, 1]), np.array([-1]), np.array([1.0]))


class TestCorruptedTileMatrix:
    """Each corruption of the tiled structure must be caught by validate()."""

    @pytest.fixture
    def tiled(self):
        return TileMatrix.from_csr(random_csr(64, 64, 0.2, seed=301))

    def test_tilennz_truncated(self, tiled):
        tiled.tilennz = tiled.tilennz[:-1]
        with pytest.raises(ValueError):
            tiled.validate()

    def test_tilennz_wrong_total(self, tiled):
        tiled.tilennz = tiled.tilennz.copy()
        tiled.tilennz[-1] += 1
        with pytest.raises(ValueError):
            tiled.validate()

    def test_tileptr_not_monotone(self, tiled):
        assert tiled.num_tile_rows >= 2
        tiled.tileptr = tiled.tileptr.copy()
        tiled.tileptr[1], tiled.tileptr[2] = tiled.tileptr[2] + 1, tiled.tileptr[1]
        with pytest.raises(ValueError):
            tiled.validate()

    def test_local_index_out_of_range(self, tiled):
        tiled.colidx = tiled.colidx.copy()
        tiled.colidx[0] = 16
        with pytest.raises(ValueError):
            tiled.validate()

    def test_tile_column_out_of_range(self, tiled):
        tiled.tilecolidx = tiled.tilecolidx.copy()
        tiled.tilecolidx[-1] = tiled.num_tile_cols + 5
        with pytest.raises(ValueError):
            tiled.validate()

    def test_unsorted_nonzeros_within_tile(self, tiled):
        # Swap two nonzeros of the first tile (breaks row-major order).
        assert tiled.tilennz[1] - tiled.tilennz[0] >= 2
        for arr_name in ("rowidx", "colidx", "val"):
            arr = getattr(tiled, arr_name).copy()
            arr[[0, 1]] = arr[[1, 0]]
            setattr(tiled, arr_name, arr)
        with pytest.raises(ValueError):
            tiled.validate()


class TestAdversarialWorkloads:
    def test_all_entries_in_one_tile(self):
        d = np.zeros((64, 64))
        d[0:16, 0:16] = 1.0
        a = CSRMatrix.from_dense(d)
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a))
        assert np.allclose(res.c.to_dense(), d @ d)

    def test_permutation_matrix_times_itself(self):
        rng = np.random.default_rng(302)
        perm = rng.permutation(50)
        p = COOMatrix(
            (50, 50), np.arange(50), perm, np.ones(50)
        ).to_csr()
        res = tile_spgemm(TileMatrix.from_csr(p), TileMatrix.from_csr(p))
        expected = p.to_dense() @ p.to_dense()
        assert np.array_equal(res.c.to_dense(), expected)

    def test_extremely_unbalanced_all_methods(self):
        # One row holds 90 % of the nonzeros.
        rng = np.random.default_rng(303)
        n = 100
        rows = np.concatenate([np.zeros(360, dtype=np.int64), rng.integers(1, n, 40)])
        cols = rng.integers(0, n, rows.size)
        a = COOMatrix((n, n), rows, cols, np.ones(rows.size)).to_csr()
        ref = None
        for method in ("tilespgemm", "speck", "bhsparse_esc", "rmerge"):
            c = get_algorithm(method)(a, a).c
            if ref is None:
                ref = c
            else:
                assert c.allclose(ref), method

    def test_band_exactly_on_tile_boundaries(self):
        # Nonzeros only on columns {15, 16}: every row straddles two tiles.
        n = 64
        rows = np.repeat(np.arange(n, dtype=np.int64), 2)
        cols = np.tile(np.array([15, 16], dtype=np.int64), n)
        a = COOMatrix((n, n), rows, cols, np.ones(2 * n)).to_csr()
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a))
        assert np.allclose(res.c.to_dense(), a.to_dense() @ a.to_dense())


class TestPageRankEdges:
    def test_dangling_nodes_mass_conserved(self):
        d = np.zeros((5, 5))
        d[0, 1] = 1.0  # nodes 2..4 dangle
        from repro.apps import pagerank

        r = pagerank(CSRMatrix.from_dense(d))
        assert r.sum() == pytest.approx(1.0)
        assert (r > 0).all()

    def test_bad_damping_rejected(self):
        from repro.apps import pagerank

        a = random_csr(5, 5, 0.5, seed=304)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                pagerank(a, damping=bad)

    def test_rectangular_rejected(self):
        from repro.apps import pagerank

        with pytest.raises(ValueError):
            pagerank(random_csr(4, 5, 0.5, seed=305))

    def test_matches_networkx(self):
        import networkx as nx

        from repro.apps import pagerank

        g = nx.gnp_random_graph(60, 0.1, seed=6, directed=True)
        adj = CSRMatrix.from_scipy(nx.to_scipy_sparse_array(g).tocsr().astype(float))
        mine = pagerank(adj, tol=1e-12)
        ref = nx.pagerank(g, alpha=0.85, tol=1e-12)
        assert np.allclose(mine, [ref[i] for i in range(60)], atol=1e-8)


# ----------------------------------------------------------------------
# Fault-injection hooks of the resilient runtime (repro.runtime)
# ----------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceOOMError, ResilienceExhausted, TransientKernelError
from repro.runtime import FaultPlan, RetryPolicy, backoff_wait, parallel_tile_spgemm
from repro.runtime.chunked import chunked_tile_spgemm

#: Allocation labels of one tile_spgemm run, in event order (the 7 sites).
TILE_ALLOC_SITES = [
    "tilePtr_C",
    "tileColIdx_C",
    "tileNnz_C",
    "rowPtr_C",
    "mask_C",
    "idx_C",
    "val_C",
]


def _tiled_pair(seed=11, n=96, density=0.08):
    a = TileMatrix.from_csr(random_csr(n, n, density, seed=seed))
    return a


def _assert_bit_identical(c1, c2):
    """Exact structural and numeric equality of two TileMatrix results."""
    assert c1.shape == c2.shape and c1.tile_size == c2.tile_size
    for name in ("tileptr", "tilecolidx", "tilennz", "rowptr", "rowidx", "colidx", "mask"):
        assert np.array_equal(getattr(c1, name), getattr(c2, name)), name
    assert np.array_equal(c1.val, c2.val)  # bitwise: same accumulation order


class TestOOMAtEveryAllocationSite:
    """An injected OOM at each of tile_spgemm's allocation sites must
    surface as a typed DeviceOOMError, and the one-worker shard engine must
    recover from it with a chunked re-run that is bit-identical to the
    clean result."""

    @pytest.mark.parametrize("site", range(1, len(TILE_ALLOC_SITES) + 1))
    def test_oom_raises_at_each_site(self, site):
        a = _tiled_pair()
        plan = FaultPlan().oom_at_alloc(at=site)
        with pytest.raises(DeviceOOMError) as excinfo:
            tile_spgemm(a, a, fault_plan=plan)
        assert excinfo.value.label == TILE_ALLOC_SITES[site - 1]
        assert plan.num_fired == 1

    @pytest.mark.parametrize("site", range(1, len(TILE_ALLOC_SITES) + 1))
    def test_resilient_recovers_from_each_site(self, site):
        a = _tiled_pair()
        clean = tile_spgemm(a, a)
        plan = FaultPlan().oom_at_alloc(at=site)
        res = parallel_tile_spgemm(a, a, workers=1, fault_plan=plan)
        # The one-shot OOM kills the first attempt; the re-split runs chunked.
        assert res.stats["shards"] > 1
        assert (res.stats["resplits"], res.stats["retries"]) == (1, 0)
        assert plan.num_fired == 1
        _assert_bit_identical(clean.c, res.c)

    def test_oom_label_match_filter(self):
        a = _tiled_pair()
        plan = FaultPlan().oom_at_alloc(match="val_C")
        with pytest.raises(DeviceOOMError) as excinfo:
            tile_spgemm(a, a, fault_plan=plan)
        assert excinfo.value.label == "val_C"


class TestTransientRetryExhaustion:
    """A fault that keeps firing must exhaust the retries and raise
    ``ResilienceExhausted``; no other algorithm's product is returned."""

    def test_plain_run_raises(self):
        a = _tiled_pair()
        with pytest.raises(TransientKernelError):
            tile_spgemm(a, a, fault_plan=FaultPlan().transient_at_step("step2", every=1))

    def test_exhaustion_raises(self):
        a = _tiled_pair()
        plan = FaultPlan().transient_at_step("step2", every=1)
        with pytest.raises(ResilienceExhausted) as excinfo:
            parallel_tile_spgemm(a, a, workers=1, fault_plan=plan)
        assert isinstance(excinfo.value.__cause__, TransientKernelError)
        # The first attempt plus the default policy's retries.
        assert plan.num_fired == RetryPolicy().max_retries + 1

    def test_single_transient_retried_in_place(self):
        a = _tiled_pair()
        clean = tile_spgemm(a, a)
        plan = FaultPlan().transient_at_step("step3", at=1)
        res = parallel_tile_spgemm(a, a, workers=1, fault_plan=plan)
        assert (res.stats["shards"], res.stats["retries"]) == (1, 1)
        assert res.timer.seconds["backoff"] == backoff_wait(RetryPolicy(), 0) > 0
        _assert_bit_identical(clean.c, res.c)

    def test_seeded_probability_replays_identically(self):
        firings = []
        for _ in range(2):
            plan = FaultPlan(seed=42).inject("transient", "alloc", probability=0.5)
            a = _tiled_pair()
            try:
                tile_spgemm(a, a, fault_plan=plan)
            except TransientKernelError:
                pass
            firings.append([(f.site, f.name, f.event_index) for f in plan.fired])
        assert firings[0] == firings[1]


class TestChunkedBitIdentity:
    """Property: chunked/batched execution is bit-identical to single-shot
    tile_spgemm — any tile size, any batch count."""

    @settings(deadline=None, max_examples=25)
    @given(
        tile_size=st.sampled_from([4, 8, 16]),
        num_batches=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=18, max_value=120),
    )
    def test_chunked_equals_single_shot(self, tile_size, num_batches, seed, n):
        a = TileMatrix.from_csr(random_csr(n, n, 0.12, seed=seed), tile_size)
        single = tile_spgemm(a, a)
        chunked = chunked_tile_spgemm(a, a, num_batches=num_batches)
        _assert_bit_identical(single.c, chunked.c)
        chunked.c.validate()
        assert chunked.stats["batches"] == min(num_batches, max(a.num_tile_rows, 1))

    def test_chunked_peak_below_single_shot(self):
        a = _tiled_pair(seed=3, n=160, density=0.1)
        single = tile_spgemm(a, a)
        chunked = chunked_tile_spgemm(a, a, num_batches=4)
        assert chunked.alloc.peak_bytes < single.alloc.peak_bytes
        # Scalar stats must agree exactly with the single-shot run.
        for key in ("num_products", "flops", "num_c_tiles", "nnz_c", "symbolic_ops"):
            assert chunked.stats[key] == single.stats[key], key
