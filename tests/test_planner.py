"""The estimation layer, the tnnz clamp, admission pricing, the gate."""

import numpy as np
import pytest

from repro.core import TileMatrix, tile_spgemm
from repro.core.step3 import DEFAULT_TNNZ, default_tnnz
from repro.errors import ServiceOverloadError
from tests.conftest import planner_doc, random_csr, scipy_product

from repro.analysis.estimate import (
    DEFAULT_SAMPLE_ROWS,
    MultiplyEstimate,
    _csr_view,
    estimate_multiply,
    row_products,
    tile_row_products,
)
from repro.matrices.suite import get_matrix
from tests.corpus import CORPUS


class TestEstimator:
    def test_full_sample_is_exact(self):
        # Every row sampled -> products and nnz(C) are exact.
        a = random_csr(60, 60, 0.08, seed=11)
        est = estimate_multiply(a, a, sample_rows=60)
        assert est.rows_sampled == 60
        c = scipy_product(a, a)
        assert est.est_nnz_c == c.nnz
        assert est.products == int(row_products(a, a).sum())

    def test_csr_and_tiled_forms_agree(self):
        a = random_csr(200, 200, 0.05, seed=12)
        b = random_csr(200, 200, 0.05, seed=13)
        at, bt = TileMatrix.from_csr(a), TileMatrix.from_csr(b)
        e_csr = estimate_multiply(a, b)
        e_tiled = estimate_multiply(at, bt)
        assert e_csr.products == e_tiled.products
        assert e_csr.est_nnz_c == e_tiled.est_nnz_c
        assert np.array_equal(
            tile_row_products(a, b, tile_size=16), e_tiled.tile_row_products
        )

    def test_tile_row_products_partition_total(self):
        a = random_csr(150, 150, 0.06, seed=14)
        per_band = tile_row_products(a, a, tile_size=16)
        assert per_band.sum() == row_products(a, a).sum()
        assert len(per_band) == TileMatrix.from_csr(a).num_tile_rows

    def test_compression_bands(self):
        # A permutation matrix has compression exactly 1 (band "1-2");
        # squaring a dense-ish matrix lands in a higher band.
        n = 64
        from repro.formats.csr import CSRMatrix

        eye = CSRMatrix(
            (n, n),
            np.arange(n + 1, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            np.ones(n),
        )
        est = estimate_multiply(eye, eye)
        assert est.compression == 1.0
        assert est.band == "1-2"
        dense = random_csr(80, 80, 0.4, seed=15)
        assert estimate_multiply(dense, dense).band == "8+"

    def test_estimate_to_dict_native(self):
        import json

        a = random_csr(100, 100, 0.05, seed=16)
        est = estimate_multiply(a, a)
        assert isinstance(est, MultiplyEstimate)
        json.dumps(est.to_dict())  # no numpy scalars / arrays


#: The end-to-end benchmark's batch matrices (suite analogues).
BENCH_MATRICES = (
    "pdb1HYS", "consph", "cant", "pwtk", "rma10", "conf5_4-8x8-05", "shipsec1",
    "mac_econ_fwd500", "cop20k_A", "scircuit", "SiO2", "gupta3",
)


def _loop_compression(a, b, sample_rows=DEFAULT_SAMPLE_ROWS) -> float:
    """The sampled compression rate, one sampled row at a time."""
    a_indptr, a_indices = _csr_view(a)
    b_indptr, b_indices = _csr_view(b)
    num_rows = int(a.shape[0])
    if num_rows <= sample_rows:
        sampled = np.arange(num_rows, dtype=np.int64)
    else:
        sampled = (np.arange(sample_rows, dtype=np.int64) * num_rows) // sample_rows
    products = nnz_c = 0
    for i in sampled:
        cols_a = a_indices[a_indptr[i]:a_indptr[i + 1]]
        if cols_a.size == 0:
            continue
        touched = np.concatenate([b_indices[b_indptr[k]:b_indptr[k + 1]] for k in cols_a])
        products += int(touched.size)
        nnz_c += int(np.unique(touched).size)
    return max(products / max(nnz_c, 1), 1.0) if products else 1.0


class TestVectorisedSample:
    """The one-pass row sample equals the row-by-row loop."""

    def _check(self, a, b):
        compression = _loop_compression(a, b)
        for x, y in ((a, b), (TileMatrix.from_csr(a), TileMatrix.from_csr(b))):
            est = estimate_multiply(x, y)
            assert est.compression == compression
            products = int(row_products(a, b).sum())
            assert est.est_nnz_c == (min(float(products), products / compression)
                                     if products else 0.0)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus(self, name):
        self._check(CORPUS[name].a, CORPUS[name].b)

    @pytest.mark.parametrize("name", BENCH_MATRICES)
    def test_benchmark_matrices(self, name):
        a = get_matrix(name)
        self._check(a, a)

    @pytest.mark.parametrize("name", sorted(CORPUS) + list(BENCH_MATRICES[:3]))
    def test_marker_and_sort_count_the_same_keys(self, name, monkeypatch):
        import repro.analysis.estimate as estimate

        if name in CORPUS:
            a, b = CORPUS[name].a, CORPUS[name].b
        else:
            a = b = get_matrix(name)
        ests = []
        for cells in (1 << 62, 0):  # the marker always, never
            monkeypatch.setattr(estimate, "_MARKER_MAX_CELLS", cells)
            ests.append(estimate_multiply(a, b))
        marker, sort = ests
        assert marker.to_dict() == sort.to_dict()
        assert marker.tile_row_products.tobytes() == sort.tile_row_products.tobytes()

    def test_a_times_a_reuses_one_view(self, monkeypatch):
        import repro.analysis.estimate as estimate

        a = TileMatrix.from_csr(random_csr(90, 90, 0.1, seed=17))
        calls = []
        real = estimate._csr_view
        monkeypatch.setattr(estimate, "_csr_view", lambda m: calls.append(m) or real(m))
        estimate_multiply(a, a)
        assert calls == [a]


class TestTnnzClamp:
    def test_clamped_at_tiny_tile_sizes(self):
        assert default_tnnz(1) == 1  # was 0 before the clamp
        assert default_tnnz(2) == 3
        assert default_tnnz(16) == DEFAULT_TNNZ

    def test_clamp_holds_for_all_tile_sizes(self):
        # The GPU cost model derives its dense/sparse split from the
        # same default_tnnz (repro.gpu.costmodel imports it), so the
        # clamp keeps both sides agreeing by construction.
        thresholds = [default_tnnz(ts) for ts in range(1, 33)]
        assert all(t >= 1 for t in thresholds)
        assert thresholds == sorted(thresholds)

    @pytest.mark.parametrize("tile_size", [1, 2])
    def test_differential_against_raw_formula(self, tile_size):
        # The pre-clamp formula (3*T*T)//4 returns 0 at T=1 — a dead
        # threshold that marks every nonzero tile dense (tile_nnz > 0 is
        # always true).  The clamp only ever lifts it to 1; everywhere
        # the formula is already positive the two agree exactly.
        raw = (3 * tile_size * tile_size) // 4
        assert default_tnnz(tile_size) == max(1, raw)
        if tile_size == 1:
            assert raw == 0 and default_tnnz(tile_size) == 1

    @pytest.mark.parametrize("tile_size", [4, 8])
    def test_engine_differential_at_small_tiles(self, tile_size):
        # The smallest engine-supported tile sizes run the same clamped
        # threshold; the product must match scipy exactly and the planned
        # threshold must equal the serial default.
        a = random_csr(48, 48, 0.12, seed=17)
        at = TileMatrix.from_csr(a, tile_size)
        res = tile_spgemm(at, at)
        assert res.c.to_csr().allclose(scipy_product(a, a))
        ref = tile_spgemm(at, at, tnnz=default_tnnz(tile_size))
        assert np.array_equal(res.c.val, ref.c.val)


class TestAdmissionAggregate:
    def _controller(self, **kw):
        from repro.serve.admission import AdmissionController

        return AdmissionController(max_queue_depth=8, **kw)

    def _estimate(self, total_bytes):
        from repro.serve.admission import CostEstimate

        return CostEstimate(
            products=1, flops=2, operand_bytes=0, c_upper_bytes=total_bytes
        )

    def test_no_budget_reserves_nothing(self):
        ctrl = self._controller()
        assert ctrl.admit_memory(self._estimate(10**9)) == 0
        assert ctrl.inflight_bytes == 0

    def test_aggregate_gate_sheds_second_request(self):
        # Two requests at 60% of budget: each fits alone, not together.
        ctrl = self._controller(budget_bytes=1000)
        reserved = ctrl.admit_memory(self._estimate(600))
        assert reserved == 600 and ctrl.inflight_bytes == 600
        with pytest.raises(ServiceOverloadError) as exc:
            ctrl.admit_memory(self._estimate(600))
        assert exc.value.reason == "memory_inflight"
        ctrl.release_memory(reserved)
        assert ctrl.inflight_bytes == 0
        assert ctrl.admit_memory(self._estimate(600)) == 600

    def test_oversized_request_sheds_alone(self):
        ctrl = self._controller(budget_bytes=1000)
        with pytest.raises(ServiceOverloadError) as exc:
            ctrl.admit_memory(self._estimate(2000))
        assert exc.value.reason == "memory_estimate"
        assert ctrl.inflight_bytes == 0  # nothing reserved on shed

    def test_release_clamps_at_zero(self):
        ctrl = self._controller(budget_bytes=1000)
        ctrl.release_memory(500)
        assert ctrl.inflight_bytes == 0


class TestPlannerComparison:
    def test_gate_passes_when_planner_wins(self):
        from repro.analysis.bench_compare import (
            planner_comparison,
            render_planner_comparison,
        )

        doc = planner_doc([0.5] * 5, [1.0] * 5)
        report = planner_comparison(doc)
        assert report["passed"]
        cfg = report["configs"]["tilespgemm"]
        assert cfg["geomean_speedup"] == pytest.approx(2.0)
        assert "PASS" in render_planner_comparison(report)

    def test_gate_fails_on_significant_regression(self):
        from repro.analysis.bench_compare import planner_comparison

        doc = planner_doc([2.0, 2.1, 2.0, 2.1, 2.0], [1.0, 1.1, 1.0, 1.1, 1.0])
        report = planner_comparison(doc)
        assert not report["passed"]
        assert report["configs"]["tilespgemm"]["regressions"] == ["m1:aa"]

    def test_geomean_below_one_fails_without_regression(self):
        from repro.analysis.bench_compare import planner_comparison

        # 10% slower: inside the noise threshold (no regression verdict)
        # but the geomean gate still refuses to call the planner a win.
        doc = planner_doc([1.1] * 5, [1.0] * 5)
        report = planner_comparison(doc)
        cfg = report["configs"]["tilespgemm"]
        assert not cfg["regressions"]
        assert cfg["geomean_speedup"] < 1.0
        assert not report["passed"]

    def test_missing_planned_series_raises(self):
        from repro.analysis.bench_compare import planner_comparison
        from repro.bench import schema

        doc = schema.new_document(
            label="t", suite="planner", warmup=0, repeats=1, seed=0
        )
        with pytest.raises(ValueError):
            planner_comparison(doc)

    def test_planned_adapter_registered_and_identical(self):
        from repro.baselines import get_algorithm

        a = random_csr(128, 128, 0.06, seed=19)
        ref = get_algorithm("tilespgemm")(a, a)
        got = get_algorithm("tilespgemm_planned")(a, a)
        assert got.method == "tilespgemm_planned"
        assert ref.c.allclose(got.c)
        assert got.stats["plan"]["mode"] in ("serial", "parallel")
