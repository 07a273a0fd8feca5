"""Differential edge-case suite: the tile pipeline vs every baseline.

Each case runs the tiled pipeline and pins its output against all
registered CSR baselines *and* a dense NumPy reference on inputs chosen
to hit representation boundaries: empty operands, a fully dense 16x16
tile (the uint8 row-pointer offset-256 boundary), duplicate COO entries,
ragged non-multiple-of-16 shapes, rectangular operands and the
half-precision value mode.

Also home of the accumulator-threshold regression tests: the step-3
default ``tnnz`` must scale as 75 % of the tile's capacity, exactly the
rule the GPU cost model uses to predict the sparse/dense split.

The shared corpus (:mod:`tests.corpus`) is run in full at the bottom:
every named case the backend-conformance harness judges also goes
through every CSR baseline here, with the tolerance-stress cases held
to a ``Σ|products|``-scaled bound (a dense reference reassociates the
accumulation, so plain elementwise tolerances are meaningless there).
"""

import numpy as np
import pytest

from repro.baselines import available_algorithms, get_algorithm
from repro.core import TileMatrix, tile_spgemm
from repro.core.step3 import DEFAULT_TNNZ, default_tnnz
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from tests.conftest import random_csr
from tests.corpus import CORPUS, corpus_names, dense_16x16, dup_coo

#: Every registered CSR-level method; tsparse runs in half precision by
#: design, so it is compared with a loose tolerance below.
ALL_METHODS = list(available_algorithms())
EXACT_METHODS = [m for m in ALL_METHODS if m != "tsparse"]


def _dense_reference(a: CSRMatrix, b: CSRMatrix) -> np.ndarray:
    return a.to_dense() @ b.to_dense()


def _assert_all_methods_agree(a: CSRMatrix, b: CSRMatrix, **tile_kwargs):
    """Tiled pipeline == dense reference == every baseline."""
    ref = _dense_reference(a, b)
    at, bt = TileMatrix.from_csr(a), TileMatrix.from_csr(b)
    tiled = tile_spgemm(at, bt, **tile_kwargs).c.to_dense()
    np.testing.assert_allclose(tiled, ref, rtol=1e-12, atol=1e-12)
    for method in EXACT_METHODS:
        got = get_algorithm(method)(a, b).c.to_dense()
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12, err_msg=method)
    if "tsparse" in ALL_METHODS:
        got = get_algorithm("tsparse")(a, b).c.to_dense()
        np.testing.assert_allclose(got, ref, rtol=5e-2, atol=5e-2, err_msg="tsparse")


class TestEmptyMatrices:
    def test_empty_square(self):
        a = CSRMatrix.from_dense(np.zeros((20, 20)))
        _assert_all_methods_agree(a, a)

    def test_empty_times_nonempty(self):
        empty = CSRMatrix.from_dense(np.zeros((24, 24)))
        full = random_csr(24, 24, 0.3, seed=301)
        _assert_all_methods_agree(empty, full)
        _assert_all_methods_agree(full, empty)

    def test_empty_result_from_disjoint_patterns(self):
        # A's columns never meet B's rows: every method must produce an
        # all-zero C without inventing spurious entries.
        d_a = np.zeros((20, 20))
        d_a[:, :10] = np.eye(20, 10)
        d_b = np.zeros((20, 20))
        d_b[10:, :] = np.eye(10, 20, k=0)
        a, b = CSRMatrix.from_dense(d_a), CSRMatrix.from_dense(d_b)
        _assert_all_methods_agree(a, b)


class TestFullyDenseTile:
    def test_dense_16x16_tile_offset_boundary(self):
        # One completely full 16x16 tile: 256 nonzeros, so the low-level
        # row pointers span offsets 0..256 — the exact boundary of the
        # uint8 row-pointer representation.  The pattern also drives the
        # accumulator to its dense branch (256 > tnnz = 192).
        a = dense_16x16()
        _assert_all_methods_agree(a, a)
        res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a))
        assert res.stats["dense_tiles"] == 1 and res.stats["sparse_tiles"] == 0

    def test_dense_tile_inside_larger_matrix(self):
        rng = np.random.default_rng(303)
        d = np.zeros((48, 48))
        d[16:32, 16:32] = rng.uniform(0.5, 1.5, size=(16, 16))  # full middle tile
        d[0, 0] = 2.0
        d[47, 47] = 3.0
        a = CSRMatrix.from_dense(d)
        _assert_all_methods_agree(a, a)


class TestDuplicateCOOEntries:
    def test_duplicates_summed_before_multiply(self):
        a = dup_coo()
        expected = np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 2.0], [4.0, 0.0, 0.0]])
        np.testing.assert_allclose(a.to_dense(), expected)
        _assert_all_methods_agree(a, a)

    def test_duplicates_cancelling_to_zero(self):
        # +v and -v at the same coordinate: the summed entry is an
        # explicit zero, which no method may treat as structurally special.
        rows = np.array([0, 0, 1])
        cols = np.array([1, 1, 0])
        vals = np.array([2.5, -2.5, 1.0])
        a = COOMatrix((18, 18), rows, cols, vals).to_csr()
        _assert_all_methods_agree(a, a)


class TestRaggedShapes:
    @pytest.mark.parametrize("shape", [(17, 19), (31, 33), (50, 47)])
    def test_non_multiple_of_16(self, shape):
        n, m = shape
        a = random_csr(n, m, 0.15, seed=304 + n)
        b = random_csr(m, n, 0.15, seed=305 + m)
        _assert_all_methods_agree(a, b)

    def test_last_tile_single_row_and_column(self):
        a = random_csr(33, 33, 0.2, seed=306)  # ragged final tile row/col
        _assert_all_methods_agree(a, a)


class TestRectangular:
    def test_8x32_times_32x8(self):
        a = random_csr(8, 32, 0.4, seed=307)
        b = random_csr(32, 8, 0.4, seed=308)
        _assert_all_methods_agree(a, b)

    def test_outer_product_shape(self):
        a = random_csr(40, 5, 0.5, seed=309)
        b = random_csr(5, 40, 0.5, seed=310)
        _assert_all_methods_agree(a, b)


class TestHalfPrecisionValues:
    def test_float16_close_to_dense_reference(self):
        a = random_csr(48, 48, 0.15, seed=311)
        ref = _dense_reference(a, a)
        at = TileMatrix.from_csr(a)
        res = tile_spgemm(at, at, value_dtype=np.float16)
        # Reduced-precision multiply, wider accumulate: the stored values
        # are float64 but each product was rounded through fp16.
        assert res.c.val.dtype == np.float64
        np.testing.assert_allclose(res.c.to_dense(), ref, rtol=5e-3, atol=1e-3)
        full = tile_spgemm(at, at)
        assert not np.array_equal(res.c.val, full.c.val)  # rounding happened

    def test_float16_structure_matches_float64(self):
        # Precision changes values, never the symbolic structure.
        a = random_csr(64, 64, 0.1, seed=312)
        at = TileMatrix.from_csr(a)
        full = tile_spgemm(at, at)
        half = tile_spgemm(at, at, value_dtype=np.float16)
        assert np.array_equal(full.c.colidx, half.c.colidx)
        assert np.array_equal(full.c.rowidx, half.c.rowidx)
        assert np.array_equal(full.c.tilennz, half.c.tilennz)


class TestAccumulatorThreshold:
    """Regression: default tnnz scales with tile size, like the cost model."""

    @pytest.mark.parametrize(
        "tile_size,expected", [(4, 12), (8, 48), (16, 192), (32, 768)]
    )
    def test_default_tnnz_is_75_percent_of_capacity(self, tile_size, expected):
        assert default_tnnz(tile_size) == expected
        assert default_tnnz(tile_size) == (3 * tile_size * tile_size) // 4

    def test_paper_value_for_16x16(self):
        assert DEFAULT_TNNZ == 192
        assert default_tnnz(16) == DEFAULT_TNNZ

    @pytest.mark.parametrize("tile_size", [4, 8, 16])  # kernels cap T at 16
    def test_split_matches_cost_model_rule(self, tile_size):
        # The run's sparse/dense accumulator decision must equal the cost
        # model's prediction (costmodel.py derives it from default_tnnz)
        # when the caller does not override tnnz.
        a = random_csr(96, 96, 0.35, seed=313 + tile_size)
        at = TileMatrix.from_csr(a, tile_size)
        res = tile_spgemm(at, at)
        tile_nnz = np.asarray(res.stats["tile_nnz_counts"])
        predicted_dense = tile_nnz > default_tnnz(tile_size)
        assert res.stats["dense_tiles"] == int(predicted_dense.sum())
        assert res.stats["sparse_tiles"] == int((~predicted_dense).sum())
        assert np.array_equal(np.asarray(res.stats["tile_use_dense"]), predicted_dense)

    def test_explicit_tnnz_still_honoured(self):
        a = random_csr(64, 64, 0.4, seed=314)
        at = TileMatrix.from_csr(a)
        forced_sparse = tile_spgemm(at, at, tnnz=10**9)
        assert forced_sparse.stats["dense_tiles"] == 0
        forced_dense = tile_spgemm(at, at, tnnz=-1)
        assert forced_dense.stats["sparse_tiles"] == 0
        assert np.array_equal(forced_sparse.c.val, forced_dense.c.val)


class TestSharedCorpus:
    """The full shared corpus through every CSR baseline."""

    @pytest.mark.parametrize(
        "case_name", corpus_names(exclude_tags=("fp16", "stress", "nonfinite"))
    )
    def test_all_methods_agree_on_corpus(self, case_name):
        case = CORPUS[case_name]
        _assert_all_methods_agree(case.a, case.b, **case.kwargs)

    @pytest.mark.parametrize(
        "case_name",
        [
            n
            for n in corpus_names(exclude_tags=("fp16",))
            if CORPUS[n].has("stress")
        ],
    )
    def test_stress_cases_within_accumulation_bound(self, case_name):
        # Catastrophic cancellation / 10^6 magnitude spreads: the dense
        # reference reassociates the sums, so the honest elementwise
        # bound is relative to Σ|products|, not to the result.
        case = CORPUS[case_name]
        ref = case.a.to_dense() @ case.b.to_dense()
        scale = np.abs(case.a.to_dense()) @ np.abs(case.b.to_dense())
        bound = 1e-12 + 1e-10 * scale
        at, bt = TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b)
        tiled = tile_spgemm(at, bt, **case.kwargs).c.to_dense()
        assert np.all(np.abs(tiled - ref) <= bound)
        for method in EXACT_METHODS:
            got = get_algorithm(method)(case.a, case.b).c.to_dense()
            assert np.all(np.abs(got - ref) <= bound), method
        # tsparse runs its products in fp16 and would overflow on the
        # 1e8-magnitude inputs, so it is deliberately excluded here.

    @pytest.mark.parametrize(
        "case_name",
        [n for n in corpus_names() if CORPUS[n].has("fp16")],
    )
    def test_fp16_cases_structure_matches_float64(self, case_name):
        # The half-precision value mode perturbs values only: symbolic
        # structure must be identical to the float64 run, and values
        # must sit within an fp16-rounding bound of it, scaled by the
        # accumulation magnitude.
        case = CORPUS[case_name]
        at, bt = TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b)
        full = tile_spgemm(at, bt)
        half = tile_spgemm(at, bt, **case.kwargs)
        assert np.array_equal(full.c.colidx, half.c.colidx)
        assert np.array_equal(full.c.rowidx, half.c.rowidx)
        assert np.array_equal(full.c.tilennz, half.c.tilennz)
        assert half.c.val.dtype == np.float64
        ref = full.c.to_dense()
        scale = np.abs(case.a.to_dense()) @ np.abs(case.b.to_dense())
        assert np.all(np.abs(half.c.to_dense() - ref) <= 1e-3 + 1e-2 * scale)
