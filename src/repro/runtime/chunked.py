"""Chunked re-execution: TileSpGEMM in tile-row batches under a budget.

When the symbolic phase discovers that ``C`` does not fit the device
budget, the run need not die: tile row ``i`` of ``C`` depends only on tile
row ``i`` of ``A`` (and all of ``B``), so the C tile-row space can be
split into batches, each batch executed as an independent TileSpGEMM under
the budget, its output offloaded, and the pieces stitched back together.
This is the progressive/batched allocation strategy the paper credits to
the bhSPARSE framework — applied here to the tiled algorithm itself.

Peak logical memory of the chunked run is the *maximum over batches* (each
batch's device buffers are freed once its piece of ``C`` is offloaded),
which is what lets a run that would OOM complete inside the budget.

The stitched result is **bit-identical** to the single-shot run: batches
partition the candidate tiles in tile-row order, every per-tile array is
produced in the same global order, and the numeric phase performs the same
accumulations per tile.  The property-based tests assert exact equality of
every structural array and of the values.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.tile_matrix import TileMatrix
from repro.core.tilespgemm import TileSpGEMMResult
from repro.errors import InvalidInputError
from repro.obs.context import current_obs
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer

__all__ = [
    "slice_tile_rows",
    "batch_bounds",
    "validate_bounds",
    "stitch_results",
    "chunked_tile_spgemm",
]

#: Stats entries that are scalar totals, summed across batches.
_SCALAR_KEYS = (
    "num_products",
    "flops",
    "num_c_tiles",
    "nnz_c",
    "symbolic_ops",
    "tile_flops_step1",
    "sparse_tiles",
    "dense_tiles",
)

#: Stats entries that are per-tile arrays in global tile order.
_ARRAY_KEYS = (
    "pairs_per_tile",
    "intersect_len_a",
    "intersect_len_b",
    "products_per_tile",
    "tile_nnz_counts",
    "tile_use_dense",
)


def slice_tile_rows(a: TileMatrix, r0: int, r1: int) -> TileMatrix:
    """The sub-matrix holding tile rows ``[r0, r1)`` of ``a``.

    The slice is a zero-copy view onto ``a``'s arrays wherever NumPy
    slicing allows, with row count ``min(nrows - r0*T, (r1-r0)*T)`` so the
    last batch keeps a ragged final tile row.
    """
    if not 0 <= r0 <= r1 <= a.num_tile_rows:
        raise InvalidInputError(
            f"tile-row slice [{r0}, {r1}) out of range for {a.num_tile_rows} tile rows"
        )
    T = a.tile_size
    t0, t1 = int(a.tileptr[r0]), int(a.tileptr[r1])
    n0, n1 = int(a.tilennz[t0]), int(a.tilennz[t1])
    rows = min(a.shape[0] - r0 * T, (r1 - r0) * T)
    return TileMatrix(
        (rows, a.shape[1]),
        T,
        a.tileptr[r0 : r1 + 1] - t0,
        a.tilecolidx[t0:t1],
        a.tilennz[t0 : t1 + 1] - n0,
        a.rowptr[t0:t1],
        a.rowidx[n0:n1],
        a.colidx[n0:n1],
        a.val[n0:n1],
        a.mask[t0:t1],
        check=False,
    )


def batch_bounds(num_tile_rows: int, num_batches: int) -> np.ndarray:
    """Tile-row boundaries splitting ``[0, num_tile_rows)`` into
    ``num_batches`` contiguous, near-equal batches.

    Exact integer splitting: with ``base, extra = divmod(rows, batches)``
    the first ``extra`` batches get ``base + 1`` rows and the rest get
    ``base``, so sizes differ by at most one and every bound is strictly
    increasing (a float ``linspace`` truncation would front-load smaller
    shards and, for ``num_batches > num_tile_rows``, emit duplicate
    boundaries whose empty shards spawn no-op workers).  ``num_batches``
    is clamped to ``[1, num_tile_rows]`` for the same reason.

    The same boundary rule serves chunked re-execution and the sharded
    parallel engine (:mod:`repro.runtime.parallel`), so a "shard" and a
    "batch" of the same count cover identical tile-row ranges.
    """
    num_tile_rows = int(num_tile_rows)
    num_batches = max(1, min(int(num_batches), max(num_tile_rows, 1)))
    base, extra = divmod(num_tile_rows, num_batches)
    sizes = np.full(num_batches, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(num_batches + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def validate_bounds(bounds: np.ndarray, num_tile_rows: int) -> None:
    """Reject boundary arrays that would not partition the tile rows.

    Valid bounds start at 0, end at ``num_tile_rows`` and are strictly
    increasing, so every batch/shard is non-empty and the stitched
    result covers ``[0, num_tile_rows)`` exactly once.  (Degenerate
    ``[0, 0]`` is allowed for empty matrices.)
    """
    bounds = np.asarray(bounds)
    if bounds.ndim != 1 or len(bounds) < 2:
        raise InvalidInputError(f"bounds must be a 1-D array of >= 2 entries, got {bounds!r}")
    if int(bounds[0]) != 0 or int(bounds[-1]) != int(num_tile_rows):
        raise InvalidInputError(
            f"bounds must cover [0, {num_tile_rows}), got "
            f"[{int(bounds[0])}, {int(bounds[-1])}]"
        )
    diffs = np.diff(bounds)
    if num_tile_rows > 0 and not bool((diffs >= 1).all()):
        raise InvalidInputError(
            f"bounds must be strictly increasing (no empty shard), got {bounds.tolist()}"
        )


def chunked_tile_spgemm(
    a: TileMatrix,
    b: TileMatrix,
    num_batches: int = 2,
    budget_bytes: Optional[int] = None,
    fault_plan=None,
    keep_empty_tiles: bool = True,
    bounds: Optional[np.ndarray] = None,
    **kwargs,
) -> TileSpGEMMResult:
    """Run TileSpGEMM in ``num_batches`` tile-row batches and stitch ``C``.

    The shard engine (:mod:`repro.runtime.shards`) with one worker: the
    batches run inline, one after another, and a batch that blows the
    budget is halved and requeued like any other shard.

    Parameters
    ----------
    a, b:
        Tiled operands, as for :func:`repro.core.tilespgemm.tile_spgemm`.
    num_batches:
        Number of tile-row batches (clamped to ``a.num_tile_rows``); each
        batch runs steps 1–3 independently under the budget.
    budget_bytes, fault_plan:
        Per-batch budget / fault plan; ``None`` means unbounded /
        fault-free.
    keep_empty_tiles:
        As for ``tile_spgemm``; applied to the stitched matrix.
    bounds:
        Optional explicit tile-row boundaries (e.g. the cost-weighted
        bounds of an :class:`~repro.runtime.planner.ExecutionPlan`);
        must start at 0, end at ``a.num_tile_rows`` and be strictly
        increasing.  Overrides ``num_batches``.
    **kwargs:
        Remaining ``tile_spgemm`` options (``tnnz``, ``force_accumulator``, ``value_dtype``).

    Returns
    -------
    TileSpGEMMResult
        With ``stats["batches"]`` recording the batch count, a merged
        phase timer, and a merged ledger whose peak is the maximum
        per-batch peak (batch buffers are freed at each batch boundary).
    """
    # Deferred: the shard engine builds on this module's helpers.
    from repro.runtime.shards import ShardRun, run_blocking

    if bounds is not None:
        bounds = np.asarray(bounds, dtype=np.int64)
        validate_bounds(bounds, a.num_tile_rows)
    else:
        bounds = batch_bounds(a.num_tile_rows, num_batches)
    run = ShardRun(a, b, bounds, track="parallel")
    opts = dict(kwargs, budget_bytes=budget_bytes, fault_plan=fault_plan)
    with current_obs().tracer.span("chunked_tile_spgemm", cat="chunked", batches=run.pieces):
        return run_blocking([run], opts, keep_empty_tiles=keep_empty_tiles)[0]


def stitch_results(
    batches: List[TileSpGEMMResult],
    a: TileMatrix,
    b: TileMatrix,
    keep_empty_tiles: bool,
) -> TileSpGEMMResult:
    """Assemble the global result from per-batch results (tile-row order).

    The pieces must cover ``a``'s tile rows contiguously in order; the
    assembled arrays are then byte-identical to a single-shot run's (see
    the module docstring).  The shard engine (:mod:`repro.runtime.shards`)
    calls it for every entry point.

    One piece already covers every tile row: it is returned as it is,
    without copying ``C`` or replaying its ledger.
    """
    if len(batches) == 1:
        (only,) = batches
        c = only.c if keep_empty_tiles else only.c.drop_empty_tiles()
        stats = dict(only.stats, batches=1)
        return TileSpGEMMResult(c=c, timer=only.timer, alloc=only.alloc, stats=stats)

    T = a.tile_size

    # --- C: concatenate the per-batch pieces (already in global order).
    tileptr = np.concatenate(
        [np.zeros(1, dtype=np.int64)] + [np.diff(r.c.tileptr) for r in batches]
    )
    np.cumsum(tileptr, out=tileptr)
    tilennz = np.concatenate(
        [np.zeros(1, dtype=np.int64)] + [np.diff(r.c.tilennz) for r in batches]
    )
    np.cumsum(tilennz, out=tilennz)
    c = TileMatrix(
        (a.shape[0], b.shape[1]),
        T,
        tileptr,
        np.concatenate([r.c.tilecolidx for r in batches]),
        tilennz,
        np.concatenate([r.c.rowptr for r in batches], axis=0),
        np.concatenate([r.c.rowidx for r in batches]),
        np.concatenate([r.c.colidx for r in batches]),
        np.concatenate([r.c.val for r in batches]),
        np.concatenate([r.c.mask for r in batches], axis=0),
        check=False,
    )
    if not keep_empty_tiles:
        c = c.drop_empty_tiles()

    # --- Timer: phase times add across batches.
    timer = PhaseTimer()
    for r in batches:
        timer.merge(r.timer)

    # --- Ledger: replay each batch then free its buffers (the offload).
    # Detached, with no budget or fault plan: the replay describes
    # allocations that already happened, so it records no telemetry.
    alloc = AllocationTracker(use_context=False)
    for k, r in enumerate(batches):
        for ev in r.alloc.events:
            alloc.set_phase(ev.phase)
            if ev.kind == "alloc":
                alloc.alloc(f"batch{k}/{ev.label}", ev.nbytes)
            else:
                alloc.free(f"batch{k}/{ev.label}")
        alloc.set_phase("offload")
        for label in alloc.live_labels():
            if label.startswith(f"batch{k}/"):
                alloc.free(label)

    # --- Stats: sum the totals, concatenate the per-tile arrays.
    stats: dict = {}
    for key in _SCALAR_KEYS:
        stats[key] = int(sum(int(r.stats.get(key, 0)) for r in batches))
    for key in _ARRAY_KEYS:
        stats[key] = np.concatenate([np.asarray(r.stats[key]) for r in batches])
    # The global tile row of every C tile, as the serial run records it.
    stats["c_tilerow"] = np.repeat(
        np.arange(len(tileptr) - 1, dtype=np.int64), np.diff(tileptr)
    )
    stats.update(
        num_tiles_a=a.num_tiles,
        num_tiles_b=b.num_tiles,
        nnz_a=a.nnz,
        nnz_b=b.nnz,
        tile_size=T,
        tnnz=batches[0].stats["tnnz"],
        batches=len(batches),
    )
    # Every batch ran under the same kernel backend; carry the label so
    # chunked/parallel results report it like a single-shot run does.
    backend_names = {str(r.stats["backend"]) for r in batches if "backend" in r.stats}
    if len(backend_names) == 1:
        stats["backend"] = backend_names.pop()

    return TileSpGEMMResult(c=c, timer=timer, alloc=alloc, stats=stats)
