"""The TileSpGEMM driver: the paper's three-step algorithm end to end.

``tile_spgemm(A, B)`` runs:

1. **step 1** — symbolic tile-level SpGEMM on the high-level layouts to
   find the candidate tiles of ``C`` (:mod:`repro.core.step1`);
2. **step 2** — per-tile set intersection plus bit-mask symbolic phase to
   size and allocate ``C`` (:mod:`repro.core.pairs`,
   :mod:`repro.core.step2`);
3. **step 3** — the numeric phase with the adaptive sparse/dense
   accumulator (:mod:`repro.core.step3`).

Every run records the paper's observables: wall time per step and for
memory allocation (Figures 10/14), a logical device-allocation ledger
(Figure 9), flop counts and the statistics the GPU execution model needs
to estimate kernel time on a modelled device (Figures 6/7/8/13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.backend import resolve_backend
from repro.core.pairs import TilePairs, enumerate_pairs_expand, enumerate_pairs_intersect
from repro.core.step1 import TileLayout, step1_tile_layout
from repro.core.step2 import SymbolicResult, step2_symbolic
from repro.core.step3 import NumericResult, default_tnnz, step3_numeric
from repro.core.tile_matrix import TILE, TileMatrix
from repro.errors import InvalidInputError
from repro.obs.context import current_obs
from repro.obs.profile import current_row_offset
from repro.runtime.context import execution_context, note_step
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer

__all__ = ["TileSpGEMMResult", "tile_spgemm", "tile_spgemm_from_csr"]


@dataclass
class TileSpGEMMResult:
    """Everything one TileSpGEMM run produces.

    Attributes
    ----------
    c:
        The product in tiled form (may contain empty tiles, like the
        paper's output; call ``c.drop_empty_tiles()`` to compact).
    timer:
        Wall-clock seconds per phase: ``step1``, ``step2``, ``step3`` and
        ``malloc``.
    alloc:
        Logical device-memory ledger of the run.
    stats:
        Cost-model inputs and run statistics (see ``collect_stats``).
    pairs, symbolic:
        Intermediate step outputs, kept for analysis and the cost model.
    """

    c: TileMatrix
    timer: PhaseTimer
    alloc: AllocationTracker
    stats: Dict[str, object] = field(default_factory=dict)
    pairs: Optional[TilePairs] = None
    symbolic: Optional[SymbolicResult] = None

    @property
    def flops(self) -> int:
        """Floating point operations (2x intermediate products)."""
        return int(self.stats["num_products"]) * 2

    def gflops(self, seconds: Optional[float] = None) -> float:
        """Throughput in GFlops for the given (default: measured) time."""
        t = self.timer.total if seconds is None else seconds
        return self.flops / t / 1e9 if t > 0 else 0.0

    def as_spgemm_result(self, method: str = "tilespgemm"):
        """Adapt to the baselines' result type for ``estimate_run`` et al.

        The adapter carries timer/ledger/stats only (``c=None``): enough
        for the cost model and memory curves, which never look at the
        product itself.
        """
        from repro.baselines.base import SpGEMMResult

        return SpGEMMResult(
            c=None,
            method=method,
            timer=self.timer,
            alloc=self.alloc,
            stats=dict(self.stats),
        )


def tile_spgemm(
    a: TileMatrix,
    b: TileMatrix,
    tnnz: Optional[int] = None,
    step1_method: str = "expand",
    intersect_method: str = "expand",
    force_accumulator: Optional[str] = None,
    keep_empty_tiles: bool = True,
    value_dtype=np.float64,
    budget_bytes: Optional[int] = None,
    fault_plan=None,
    backend=None,
) -> TileSpGEMMResult:
    """Multiply two tiled sparse matrices with the TileSpGEMM algorithm.

    Parameters
    ----------
    a, b:
        Inputs in tiled form with equal tile sizes (the paper assumes the
        tiled format is the resident format, e.g. across AMG levels).
    tnnz:
        Adaptive-accumulator threshold; ``None`` resolves to
        :func:`~repro.core.step3.default_tnnz` (the paper's 192 for 16x16
        tiles, the same 75 %-of-capacity ratio for other tile sizes).
    step1_method:
        ``"expand"`` (vectorised) or ``"hash"`` (NSPARSE-like, the paper's
        choice) for the tile-layout symbolic SpGEMM.
    intersect_method:
        ``"expand"`` for the vectorised global pair enumeration, or
        ``"binary"`` / ``"merge"`` for the per-tile Algorithm 2 loops.
    force_accumulator:
        ``"sparse"`` / ``"dense"`` disables adaptive selection (ablation).
    keep_empty_tiles:
        Keep candidate tiles that end up with zero nonzeros, as the CUDA
        implementation does (they cost space but no correctness).
    value_dtype:
        Precision of the numeric products (``np.float16`` emulates the
        half-precision tSparse-comparison mode; see
        :func:`repro.core.step3.step3_numeric`).
    budget_bytes:
        Optional logical device-memory budget; exceeding it raises
        :class:`~repro.errors.DeviceOOMError` at the offending allocation
        (recover with :func:`repro.runtime.chunked.chunked_tile_spgemm` or
        :func:`repro.runtime.policy.run_resilient`).
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` observing this
        run's allocations and steps.  Both parameters default to the
        active :func:`~repro.runtime.context.execution_context`.
    backend:
        Kernel backend for the steps' hot inner kernels — a registered
        name (``"numpy"``, ``"pyloops"``, ...), a
        :class:`~repro.backend.KernelSet`, or ``None`` for the ambient
        default (process default, then ``REPRO_BACKEND``, then
        ``numpy``; see :mod:`repro.backend`).  Conformant backends
        produce byte-identical results; the chosen name is recorded in
        ``stats["backend"]`` and on the run's trace span.

    Returns
    -------
    TileSpGEMMResult
    """
    if a.tile_size != b.tile_size:
        raise InvalidInputError("A and B must use the same tile size")
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: A is {a.shape[0]}x{a.shape[1]}, "
            f"B is {b.shape[0]}x{b.shape[1]}"
        )
    kernels = resolve_backend(backend)
    with execution_context(budget_bytes=budget_bytes, fault_plan=fault_plan):
        return _tile_spgemm_under_context(
            a,
            b,
            tnnz=tnnz,
            step1_method=step1_method,
            intersect_method=intersect_method,
            force_accumulator=force_accumulator,
            keep_empty_tiles=keep_empty_tiles,
            value_dtype=value_dtype,
            kernels=kernels,
        )


def _tile_spgemm_under_context(
    a: TileMatrix,
    b: TileMatrix,
    tnnz: Optional[int],
    step1_method: str,
    intersect_method: str,
    force_accumulator: Optional[str],
    keep_empty_tiles: bool,
    value_dtype,
    kernels,
) -> TileSpGEMMResult:
    timer = PhaseTimer()
    alloc = AllocationTracker()
    T = a.tile_size
    if tnnz is None:
        tnnz = default_tnnz(T)
    obs = current_obs()
    tracer = obs.tracer

    with tracer.span(
        "tile_spgemm",
        cat="algorithm",
        shape_a=list(a.shape),
        shape_b=list(b.shape),
        nnz_a=int(a.nnz),
        nnz_b=int(b.nnz),
        tile_size=T,
        backend=kernels.name,
    ):
        # --------------------------------------------------------- step 1
        alloc.set_phase("step1")
        note_step("step1")
        with timer.phase("step1"), tracer.span("step1", cat="step", method=step1_method):
            layout = step1_tile_layout(
                a.tile_pattern_csr(), b.tile_pattern_csr(), method=step1_method
            )
        with timer.phase("malloc"), tracer.span("malloc", cat="step"):
            alloc.alloc("tilePtr_C", layout.tileptr.size * 4)
            alloc.alloc("tileColIdx_C", layout.num_tiles * 4)

        # --------------------------------------------------------- step 2
        alloc.set_phase("step2")
        note_step("step2")
        with timer.phase("step2"), tracer.span(
            "step2", cat="step", method=intersect_method, backend=kernels.name
        ):
            if intersect_method == "expand":
                pairs = enumerate_pairs_expand(a, b)
            else:
                pairs = enumerate_pairs_intersect(
                    a,
                    b,
                    c_tilerow=layout.tile_rowidx(),
                    c_tilecol=layout.tilecolidx,
                    method=intersect_method,
                )
            _check_layout_matches(layout, pairs)
            sym = step2_symbolic(a, b, pairs, backend=kernels)
        with timer.phase("malloc"), tracer.span("malloc", cat="step"):
            alloc.alloc("tileNnz_C", (pairs.num_c_tiles + 1) * 4)
            alloc.alloc("rowPtr_C", pairs.num_c_tiles * T)
            alloc.alloc("mask_C", pairs.num_c_tiles * T * sym.mask.dtype.itemsize)
            alloc.alloc("idx_C", sym.nnz * 1)
            alloc.alloc("val_C", sym.nnz * 8)

        # --------------------------------------------------------- step 3
        alloc.set_phase("step3")
        note_step("step3")
        with timer.phase("step3"), tracer.span(
            "step3", cat="step", tnnz=tnnz, backend=kernels.name
        ):
            num = step3_numeric(
                a,
                b,
                pairs,
                sym,
                tnnz=tnnz,
                force_accumulator=force_accumulator,
                value_dtype=value_dtype,
                backend=kernels,
            )

    c = TileMatrix(
        (a.shape[0], b.shape[1]),
        T,
        _tileptr_from_rows(pairs.c_tilerow, layout.num_tile_rows),
        pairs.c_tilecol,
        sym.tilennz,
        sym.rowptr,
        num.rowidx,
        num.colidx,
        num.val,
        sym.mask,
        check=False,
    )
    if not keep_empty_tiles:
        c = c.drop_empty_tiles()

    stats = collect_stats(a, b, pairs, sym, num, layout)
    stats["backend"] = kernels.name
    stats["backend_tier"] = kernels.tier.value
    if obs.enabled:
        _record_obs_metrics(obs.metrics, stats)
        profiler = obs.profile
        if profiler.enabled:
            profiler.record_run(stats, timer, row_offset=current_row_offset())
    return TileSpGEMMResult(
        c=c, timer=timer, alloc=alloc, stats=stats, pairs=pairs, symbolic=sym
    )


def tile_spgemm_from_csr(a_csr, b_csr, tile_size: int = TILE, **kwargs) -> TileSpGEMMResult:
    """Convenience wrapper: convert CSR inputs then run TileSpGEMM.

    Conversion time is recorded in the result's ``format_conversion`` phase
    (the quantity Figure 12 compares against a single SpGEMM).
    """
    timer = PhaseTimer()
    with timer.phase("format_conversion"), current_obs().tracer.span(
        "format_conversion", cat="step"
    ):
        a = TileMatrix.from_csr(a_csr, tile_size)
        b = TileMatrix.from_csr(b_csr, tile_size)
    result = tile_spgemm(a, b, **kwargs)
    result.timer.merge(timer)
    return result


def _record_obs_metrics(metrics, stats: Dict[str, object]) -> None:
    """Record the algorithm's decision-point counters for one run.

    Counter glossary in ``docs/OBSERVABILITY.md``; the values mirror the
    ``collect_stats`` dictionary exactly (the observability tests assert
    the equality), so the metrics are as deterministic as the run.
    """
    metrics.inc("tilespgemm_runs_total")
    backend = stats.get("backend")
    if backend:
        metrics.inc("backend_runs_total", backend=str(backend))
    metrics.inc("tile_pairs_matched_total", int(np.asarray(stats["pairs_per_tile"]).sum()))
    metrics.inc("atomic_or_ops_total", int(stats["symbolic_ops"]))
    metrics.inc("atomic_add_ops_total", int(stats["num_products"]))
    metrics.inc("accumulator_tiles_total", int(stats["sparse_tiles"]), kind="sparse")
    metrics.inc("accumulator_tiles_total", int(stats["dense_tiles"]), kind="dense")
    metrics.inc("mask_popcount_bits_total", int(stats["nnz_c"]))
    metrics.inc("c_tiles_total", int(stats["num_c_tiles"]))
    metrics.inc("c_nnz_total", int(stats["nnz_c"]))
    metrics.inc("flops_total", int(stats["flops"]))
    tile_nnz = np.asarray(stats["tile_nnz_counts"])
    if tile_nnz.size:
        metrics.observe_many("tile_nnz", tile_nnz.tolist())


def _tileptr_from_rows(tile_rows: np.ndarray, num_tile_rows: int) -> np.ndarray:
    tileptr = np.zeros(num_tile_rows + 1, dtype=np.int64)
    if tile_rows.size:
        np.cumsum(np.bincount(tile_rows, minlength=num_tile_rows), out=tileptr[1:])
    return tileptr


def _check_layout_matches(layout: TileLayout, pairs: TilePairs) -> None:
    """Step 1's candidate tiles must equal the tiles the pairs touch."""
    if layout.num_tiles != pairs.num_c_tiles:
        raise AssertionError(
            "step 1 layout disagrees with pair enumeration: "
            f"{layout.num_tiles} vs {pairs.num_c_tiles} candidate tiles"
        )


def collect_stats(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    sym: SymbolicResult,
    num: NumericResult,
    layout: TileLayout,
) -> Dict[str, object]:
    """Assemble the run statistics / cost-model inputs dictionary.

    Keys
    ----
    ``num_products``, ``flops`` — work of the numeric phase;
    ``num_c_tiles``, ``nnz_c`` — output size;
    ``pairs_per_tile`` — matched pairs per candidate tile (load balance);
    ``intersect_len_a``/``_b`` — intersection list lengths per tile;
    ``symbolic_ops`` — mask OR count; ``tile_flops_step1`` — step-1 work;
    ``sparse_tiles``/``dense_tiles`` — accumulator selection outcome;
    ``products_per_tile`` — numeric work per candidate tile.
    """
    pairs_per_tile = np.diff(pairs.pair_ptr)
    # Numeric products per candidate tile, from step 3's per-pair sums.
    products_per_tile = np.diff(num.product_csum[pairs.pair_ptr])

    return {
        "num_products": num.num_products,
        "flops": num.num_products * 2,
        "num_c_tiles": pairs.num_c_tiles,
        "nnz_c": sym.nnz,
        "pairs_per_tile": pairs_per_tile,
        "intersect_len_a": pairs.len_a,
        "intersect_len_b": pairs.len_b,
        "symbolic_ops": sym.symbolic_ops,
        "pair_a_nnz": sym.pair_a_nnz,
        "tile_flops_step1": layout.tile_flops,
        "num_tiles_a": a.num_tiles,
        "num_tiles_b": b.num_tiles,
        "nnz_a": a.nnz,
        "nnz_b": b.nnz,
        "sparse_tiles": num.sparse_tiles,
        "dense_tiles": num.dense_tiles,
        "products_per_tile": products_per_tile,
        "tile_nnz_counts": sym.tile_nnz_counts,
        "tile_use_dense": num.use_dense,
        "tile_size": a.tile_size,
        "c_tilerow": pairs.c_tilerow,
        "tnnz": num.tnnz,
    }
