"""The TileSpGEMM driver: the paper's three-step algorithm end to end.

``tile_spgemm(A, B)`` runs:

1. **step 1** — the tile-pair join (:func:`repro.core.pairs.live_join`)
   finds the candidate tiles of ``C`` and each one's matched
   ``(A_ik, B_kj)`` pairs.  It counts them without a sort and keeps only
   the live pairs (an ``A`` column meets a nonempty ``B`` row) for steps
   2 and 3; the statistics (``pairs_per_tile``, ``tile_flops_step1``,
   ``symbolic_ops``) still count every matched pair.  It finds the live
   pairs by filtering the matched ones or, when that expands less,
   through a row index of ``B``; the second pass counts the candidate
   tiles as the tile-level product ``A'B'`` (an exact dense ``matmul``
   where that is cheap, else by expanding the matched pairs) and also
   lists the pairs' live entries, which steps 2 and 3 then take as they
   are (unless a mask dropped pairs).  The ``step1`` span's ``join``
   attribute names the pass and its ``count`` attribute the count
   (``"product"``, ``"expand"`` or ``"mixed"``).  The paper's NSPARSE
   hash kernel and per-tile intersection are
   reference kernels the tests check the reference join
   (:func:`~repro.core.pairs.enumerate_pairs_expand`) against:
   :mod:`repro.core.step1`, :mod:`repro.core.pairs`;
2. **step 2** — the bit-mask symbolic phase sizes and allocates ``C``
   (:mod:`repro.core.step2`);
3. **step 3** — the numeric phase with the adaptive sparse/dense
   accumulator (:mod:`repro.core.step3`), which picks each tile's path
   from step 2's per-pair product counts and reuses the live-entry list
   (step 1's, or :func:`repro.core.step2.step2_entries`) for its scatter
   tiles.

Steps 2 and 3 run on the *live* candidate tiles only, those holding at
least one live pair (:meth:`~repro.core.pairs.TilePairs.select_tiles`;
the same arrays when every tile is live).  A dead tile holds no pair, so
the pair arrays, the per-pair product counts, the live-entry list and
step 3's chunk cuts are those of a run over every tile; only the
tile-indexed arrays shrink.  The driver then spreads the masks, row
pointers, nonzero counts and accumulator choices back to every candidate
tile (:func:`_on_candidates`), so ``C`` keeps every candidate tile and
the result equals a run over all of them byte for byte.

Every run records the paper's observables: wall time per step and for
memory allocation (Figures 10/14), a logical device-allocation ledger
(Figure 9), flop counts and the statistics the GPU execution model needs
to estimate kernel time on a modelled device (Figures 6/7/8/13).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.backend import resolve_backend
from repro.core.pairs import TilePairs, _join
from repro.core.step2 import SymbolicResult, step2_entries, step2_symbolic
from repro.core.step3 import NumericResult, default_tnnz, paper_accumulator, step3_numeric
from repro.core.tile_matrix import TILE, TileMatrix, mask_dtype_for
from repro.errors import InvalidInputError
from repro.obs.context import current_obs
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer

__all__ = ["TileSpGEMMResult", "check_operands", "serial_ledger", "tile_spgemm",
           "tile_spgemm_from_csr"]


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


def check_operands(a: TileMatrix, b: TileMatrix) -> None:
    """Reject operands no tile-row range of ``a @ b`` could multiply."""
    if a.tile_size != b.tile_size:
        raise InvalidInputError("A and B must use the same tile size")
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: A is {a.shape[0]}x{a.shape[1]}, "
            f"B is {b.shape[0]}x{b.shape[1]}"
        )


def tile_spgemm(
    a: TileMatrix,
    b: TileMatrix,
    tnnz: Optional[int] = None,
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
    force_accumulator:
        ``"sparse"`` / ``"dense"`` disables adaptive selection (ablation)
        and forces step 3's executed path where it stays exact (see
        :func:`repro.core.step3.step3_numeric`).
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
        (recover with :func:`repro.runtime.parallel.parallel_tile_spgemm`,
        which halves an over-budget tile-row range until it fits).
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` observing this
        run's allocations and steps.
    backend:
        Kernel backend for the steps' hot inner kernels — a registered
        name (``"numpy"``, ``"pyloops"``, ...), a
        :class:`~repro.backend.KernelSet`, or ``None`` for
        ``REPRO_BACKEND``, else ``numpy`` (see :mod:`repro.backend`).
        Conformant backends produce byte-identical results; the chosen
        name is recorded in ``stats["backend"]`` and on the run's trace
        span.

    Returns
    -------
    TileSpGEMMResult
    """
    res = _tile_spgemm(a, b, tnnz=tnnz, force_accumulator=force_accumulator,
                       keep_empty_tiles=keep_empty_tiles, value_dtype=value_dtype,
                       budget_bytes=budget_bytes, fault_plan=fault_plan, backend=backend)
    _record_work(current_obs(), res)
    return res


def _tile_spgemm(
    a: TileMatrix,
    b: TileMatrix,
    *,
    tnnz: Optional[int] = None,
    force_accumulator: Optional[str] = None,
    keep_empty_tiles: bool = True,
    value_dtype=np.float64,
    budget_bytes: Optional[int] = None,
    fault_plan=None,
    backend=None,
    mask: Optional[TileMatrix] = None,
) -> TileSpGEMMResult:
    """:func:`tile_spgemm` without the work record: the one run of steps 1–3.

    A shard-engine range runs this; the engine records its multiply
    once, from the stitched result
    (:meth:`repro.runtime.shards.ShardRun.stitch`).  Events — spans,
    allocations, injected faults — are still recorded where they happen.

    ``mask`` (a checked :class:`TileMatrix` of the product's shape) makes
    the product ``(A @ B) .* pattern(mask)``
    (:func:`repro.core.masked.masked_tile_spgemm`): step 1 keeps the
    candidate tiles present in the mask's layout, step 2 ANDs their mask
    rows into ``C``'s bit masks and step 3 drops the products that land
    outside them.
    """
    check_operands(a, b)
    kernels = resolve_backend(backend)
    T = a.tile_size
    if tnnz is None:
        tnnz = default_tnnz(T)

    tracer = current_obs().tracer

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
        timer = PhaseTimer()
        alloc = AllocationTracker(budget_bytes, fault_plan=fault_plan)

        def enter(step: str) -> None:
            # Tag the ledger and report the step to the fault plan, which
            # may raise a typed error here: that is the injection.
            alloc.set_phase(step)
            if fault_plan is not None:
                fault_plan.on_step(step)

        # --------------------------------------------------------- step 1
        # The tile-pair join finds C's layout; steps 2 and 3 keep its live pairs.
        enter("step1")
        with timer.phase("step1") as step1:
            joined, entries, count = _join(a, b, kernels)
            step1["join"] = "filter" if entries is None else "column"
            step1["count"] = count
            tile_flops_step1 = int(joined.matched.sum())
            pairs, mask_rows = joined, None
            if mask is not None:
                pairs, mask_rows = _restrict_to_mask(joined, mask)
        with timer.phase("malloc"):
            _allocate_c(alloc, "step1", a.num_tile_rows, pairs.num_c_tiles, T)

        # Steps 2 and 3 run on the live candidate tiles: a tile whose
        # matched pairs are all dead holds no pair, no entry and no product.
        live_tiles = np.flatnonzero(np.diff(pairs.pair_ptr))
        live = pairs if live_tiles.size == pairs.num_c_tiles else pairs.select_tiles(live_tiles)
        if live is not pairs and mask_rows is not None:
            mask_rows = mask_rows[live_tiles]
        if live.pair_a is not joined.pair_a:
            entries = None  # the mask dropped pairs: the entries' pair numbers are stale

        # --------------------------------------------------------- step 2
        enter("step2")
        with timer.phase("step2", backend=kernels.name):
            if entries is None:
                entries = step2_entries(a, b, live, kernels)
            sym = step2_symbolic(a, b, live, backend=kernels, live=entries, mask=mask_rows)
        with timer.phase("malloc"):
            _allocate_c(alloc, "step2", a.num_tile_rows, pairs.num_c_tiles, T, sym.nnz)

        # --------------------------------------------------------- step 3
        enter("step3")
        with timer.phase("step3", tnnz=tnnz, backend=kernels.name):
            num = step3_numeric(
                a,
                b,
                live,
                sym,
                tnnz=tnnz,
                force_accumulator=force_accumulator,
                mask_filter=mask is not None,
                value_dtype=value_dtype,
                backend=kernels,
                live=entries,
            )
            if live is not pairs:
                sym, num = _on_candidates(pairs, live_tiles, sym, num, force_accumulator)

    c = TileMatrix(
        (a.shape[0], b.shape[1]),
        T,
        _tileptr_from_rows(pairs.c_tilerow, a.num_tile_rows),
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

    stats = collect_stats(a, b, pairs, sym, num, tile_flops_step1)
    stats["backend"] = kernels.name
    if mask is not None:
        stats["masked"] = True
    return TileSpGEMMResult(
        c=c, timer=timer, alloc=alloc, stats=stats, pairs=pairs, symbolic=sym
    )


def _restrict_to_mask(pairs: TilePairs, mask: TileMatrix):
    """Keep the candidate tiles present in ``mask``'s tile layout.

    Returns the kept tiles' pairs and per-tile statistics and, per kept
    tile, the mask's bit rows.
    """
    ntc = max(mask.num_tile_cols, 1)
    cand = pairs.c_tilerow * ntc + pairs.c_tilecol
    held = mask.tile_rowidx() * ntc + mask.tilecolidx
    pos = np.searchsorted(held, cand)
    keep = pos < held.size
    keep[keep] = held[pos[keep]] == cand[keep]
    tiles = np.flatnonzero(keep)
    return pairs.select_tiles(tiles), mask.mask[pos[tiles]]


def _on_candidates(
    pairs: TilePairs,
    live_tiles: np.ndarray,
    sym: SymbolicResult,
    num: NumericResult,
    force_accumulator: Optional[str],
):
    """Steps 2 and 3's per-tile outputs on ``live_tiles`` (ascending
    indices), spread to every candidate tile.

    A dead tile keeps an empty mask and row pointer and no nonzeros; its
    accumulator choice is the paper's for an empty tile, and
    ``symbolic_ops`` counts its matched pairs again.  The per-pair
    arrays, the values and the local indices are unchanged: dead tiles
    hold no pair and no entry.
    """
    num_c = pairs.num_c_tiles

    def spread(values: np.ndarray) -> np.ndarray:
        out = np.zeros((num_c,) + values.shape[1:], dtype=values.dtype)
        # Each tile's row as one opaque item: the assignment then copies
        # one block per tile rather than one element at a time.
        row = np.dtype((np.void, values.dtype.itemsize * int(np.prod(values.shape[1:]))))
        out.view(row)[live_tiles] = np.ascontiguousarray(values).view(row)
        return out

    counts = spread(sym.tile_nnz_counts)
    tilennz = np.zeros(num_c + 1, dtype=sym.tilennz.dtype)
    np.cumsum(counts, out=tilennz[1:])
    sym = replace(sym, mask=spread(sym.mask), rowptr=spread(sym.rowptr), tilennz=tilennz,
                  tile_nnz_counts=counts, symbolic_ops=int(pairs.matched_a_nnz.sum()))
    use_dense = paper_accumulator(counts, num.tnnz, force_accumulator)
    dense = int(np.count_nonzero(use_dense))
    return sym, replace(num, use_dense=use_dense, sparse_tiles=num_c - dense, dense_tiles=dense)


def tile_spgemm_from_csr(a_csr, b_csr, tile_size: int = TILE, **kwargs) -> TileSpGEMMResult:
    """Convenience wrapper: convert CSR inputs then run TileSpGEMM.

    Conversion time is recorded in the result's ``format_conversion`` phase
    (the quantity Figure 12 compares against a single SpGEMM).
    """
    timer = PhaseTimer()
    with timer.phase("format_conversion"):
        a = TileMatrix.from_csr(a_csr, tile_size)
        b = TileMatrix.from_csr(b_csr, tile_size)
    result = tile_spgemm(a, b, **kwargs)
    result.timer.merge(timer)
    return result


def _allocate_c(
    alloc: AllocationTracker, step: str, num_tile_rows: int, num_c_tiles: int, tile_size: int,
    nnz_c: int = 0,
) -> None:
    """Record the device buffers of ``C`` that ``step`` allocates.

    Step 1 sizes ``C``'s tile layout; step 2 sizes its per-tile structure
    and values (paper §3.3).
    """
    if step == "step1":
        alloc.alloc("tilePtr_C", (num_tile_rows + 1) * 4)
        alloc.alloc("tileColIdx_C", num_c_tiles * 4)
    else:
        alloc.alloc("tileNnz_C", (num_c_tiles + 1) * 4)
        alloc.alloc("rowPtr_C", num_c_tiles * tile_size)
        alloc.alloc("mask_C", num_c_tiles * tile_size * mask_dtype_for(tile_size).itemsize)
        alloc.alloc("idx_C", nnz_c * 1)
        alloc.alloc("val_C", nnz_c * 8)


def serial_ledger(stats: Dict[str, object], num_tile_rows: int) -> AllocationTracker:
    """The allocation ledger of the one serial run whose statistics are ``stats``.

    A stitched multi-shard result has the serial run's statistics but one
    ledger per shard; a GPU runs the product once, so this ledger is what
    prices it.  A detached ledger (``use_context=False``): it describes a
    run, it is not one, so it meets no budget or fault plan and records
    no telemetry.
    """
    alloc = AllocationTracker(use_context=False)
    for step in ("step1", "step2"):
        alloc.set_phase(step)
        _allocate_c(alloc, step, num_tile_rows, int(stats["num_c_tiles"]),
                    int(stats["tile_size"]), int(stats["nnz_c"]))
    return alloc


def _record_work(obs, res: TileSpGEMMResult) -> None:
    """Make one multiply's work record in ``obs``: its counters and its
    workload profile.

    Made once per multiply, from its result, whatever ran it: by
    :func:`tile_spgemm` called directly and by the shard engine's stitch
    (whose statistics carry the global ``c_tilerow``).
    """
    if obs.enabled:
        _record_obs_metrics(obs.metrics, res.stats)
        obs.profile.record_run(res.stats)


def _record_obs_metrics(metrics, stats: Dict[str, object]) -> None:
    """Record the algorithm's decision-point counters for one multiply.

    Counter glossary in ``docs/OBSERVABILITY.md``; the values mirror the
    ``collect_stats`` dictionary exactly (the observability tests assert
    the equality), so the metrics are as deterministic as the run.  A
    stat another counter already determines (``flops`` is twice the
    AtomicAdds, C's tile count the sum of the accumulator selections)
    is not counted again.
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
    metrics.inc("c_nnz_total", int(stats["nnz_c"]))


def _tileptr_from_rows(tile_rows: np.ndarray, num_tile_rows: int) -> np.ndarray:
    tileptr = np.zeros(num_tile_rows + 1, dtype=np.int64)
    if tile_rows.size:
        np.cumsum(np.bincount(tile_rows, minlength=num_tile_rows), out=tileptr[1:])
    return tileptr


def collect_stats(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    sym: SymbolicResult,
    num: NumericResult,
    tile_flops_step1: int,
) -> Dict[str, object]:
    """Assemble the run statistics / cost-model inputs dictionary.

    Keys
    ----
    ``num_products``, ``flops`` — work of the numeric phase;
    ``num_c_tiles``, ``nnz_c`` — output size;
    ``pairs_per_tile`` — matched pairs per candidate tile, dead ones
    included (load balance);
    ``intersect_len_a``/``_b`` — intersection list lengths per tile;
    ``symbolic_ops`` — mask OR count over the matched pairs;
    ``tile_flops_step1`` — step-1 work, all matched pairs;
    ``sparse_tiles``/``dense_tiles`` — accumulator selection outcome;
    ``products_per_tile`` — numeric work per candidate tile.
    """
    # Numeric products per candidate tile, from step 3's per-pair sums.
    products_per_tile = np.diff(num.product_csum[pairs.pair_ptr])

    return {
        "num_products": num.num_products,
        "flops": num.num_products * 2,
        "num_c_tiles": pairs.num_c_tiles,
        "nnz_c": sym.nnz,
        "pairs_per_tile": pairs.matched,
        "intersect_len_a": pairs.len_a,
        "intersect_len_b": pairs.len_b,
        "symbolic_ops": sym.symbolic_ops,
        "tile_flops_step1": tile_flops_step1,
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
