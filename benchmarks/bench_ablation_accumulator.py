"""Ablation: the adaptive accumulator threshold (paper §3.3's tnnz = 192).

The paper selects the dense accumulator when a tile holds more than 75 %
of its capacity (192 of 256) and the sparse accumulator otherwise.  This
ablation sweeps the threshold from always-dense (0) to always-sparse (256)
and reports the accumulator mix, the modelled step-3 time, and wall time —
demonstrating that the adaptive middle beats both extremes on a mixed
workload.

On the CPU ``tnnz`` is a recorded statistic only: step 3 picks its
executed path per tile by product fill, so ``tnnz`` does not change wall
time here.  ``force_accumulator`` does: ``"sparse"`` runs every tile on
the scatter path and ``"dense"`` every tile with products on the dense
tile path, with byte-identical values.  The GPU cost model
(``estimate_run``) prices the two ``tnnz`` kinds differently, which is
what the modelled columns and the shape tests compare.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import save_and_print, tiled_of
from repro.analysis import format_table
from repro.core import tile_spgemm
from repro.gpu import RTX3090, estimate_run
from repro.matrices import representative_18

THRESHOLDS = [0, 64, 128, 192, 256]


@pytest.fixture(scope="module")
def sweep():
    # A block matrix with a genuine mix of dense and sparse tiles.
    spec = next(s for s in representative_18() if s.name == "pkustk12")
    a = tiled_of(spec.matrix())
    out = {}
    for tnnz in THRESHOLDS:
        t0 = time.perf_counter()
        res = tile_spgemm(a, a, tnnz=tnnz)
        wall = time.perf_counter() - t0
        from repro.baselines.base import SpGEMMResult

        adapter = SpGEMMResult(
            c=res.c.to_csr(), method="tilespgemm", timer=res.timer,
            alloc=res.alloc, stats=dict(res.stats),
        )
        est = estimate_run(adapter, RTX3090)
        step3 = next(k for k in est.kernels if k.name == "step3")
        out[tnnz] = {
            "sparse_tiles": res.stats["sparse_tiles"],
            "dense_tiles": res.stats["dense_tiles"],
            "wall_ms": wall * 1e3,
            "modelled_ms": est.seconds * 1e3,
            "step3_compute_ms": step3.compute_s * 1e3,
            "nnz_c": res.c.nnz,
        }
    return out


def test_ablation_report(benchmark, sweep):
    rows = [
        [
            t,
            v["sparse_tiles"],
            v["dense_tiles"],
            f"{v['step3_compute_ms']:.4f}",
            f"{v['modelled_ms']:.3f}",
            f"{v['wall_ms']:.1f}",
        ]
        for t, v in sweep.items()
    ]
    text = format_table(
        ["tnnz", "sparse tiles", "dense tiles", "step3 compute ms", "modelled ms", "wall ms"],
        rows,
        title="Ablation: adaptive accumulator threshold (paper: tnnz = 192 = 75% of 256)",
    )
    benchmark.pedantic(save_and_print, args=("ablation_accumulator", text), rounds=1, iterations=1)


def test_shape_threshold_splits_monotonically(sweep):
    dense_counts = [sweep[t]["dense_tiles"] for t in THRESHOLDS]
    assert all(a >= b for a, b in zip(dense_counts, dense_counts[1:]))
    # At tnnz=0 every *non-empty* candidate tile goes dense (empty
    # candidate tiles have nnz == 0 and always count as sparse).
    assert sweep[0]["dense_tiles"] > 0.9 * sweep[0]["sparse_tiles"]
    assert sweep[256]["dense_tiles"] == 0


def test_shape_results_identical(sweep):
    assert len({v["nnz_c"] for v in sweep.values()}) == 1


def test_shape_paper_threshold_not_worse_than_extremes(sweep):
    """The modelled step-3 compute at tnnz=192 must not exceed either
    all-sparse or all-dense (the point of the adaptive selection)."""
    adaptive = sweep[192]["step3_compute_ms"]
    assert adaptive <= sweep[0]["step3_compute_ms"] * 1.05
    assert adaptive <= sweep[256]["step3_compute_ms"] * 1.05


@pytest.mark.parametrize("force", ["sparse", "dense"])
def test_bench_accumulators(benchmark, force):
    spec = next(s for s in representative_18() if s.name == "case39")
    a = tiled_of(spec.matrix())
    res = benchmark.pedantic(
        lambda: tile_spgemm(a, a, force_accumulator=force), rounds=1, iterations=1
    )
    benchmark.extra_info["dense_tiles"] = res.stats["dense_tiles"]
