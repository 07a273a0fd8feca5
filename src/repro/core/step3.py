"""Step 3 of TileSpGEMM: the numeric phase (paper §3.3, Algorithm 3).

With ``C``'s per-tile structure known from step 2, this step computes the
values.  For every matched pair ``(A_ik, B_kj)`` and every nonzero
``a = (r, c, v)`` of the ``A`` tile, the products ``v * B_kj[c, *]`` are
accumulated into row ``r`` of the ``C`` tile.

The paper's *adaptive accumulator* picks, per ``C`` tile, a **sparse**
accumulator (``nnz <= tnnz``, default 192 = 75 % of 256: each product goes
straight to ``rowptr[r] + rank`` in the compacted tile, ``rank`` being the
popcount of the row's mask bits below the product's column) or a **dense**
one (a ``T*T`` scratch tile, compacted through the mask afterwards).  That
choice is recorded per tile (``NumericResult.use_dense``) for the cost
model, the profiler and the ablations.  The CPU runs two exact paths and
picks one per ``C`` tile by *product fill* instead — its products over
``matched * T**3``, the work a dense tile product does over the tile's
matched pairs (:attr:`~repro.core.pairs.TilePairs.matched`, dead pairs
included, so the choice does not depend on which pairs the join holds):

* **scatter** — per ``A`` nonzero, gather its ``C`` row's base offset
  ``tilennz[slot] + rowptr[slot, r]`` and mask; per product, add the
  popcount rank of its column; scatter-add.  Products come from the live
  entries (:func:`repro.core.pairs.live_entries`) of the scatter tiles'
  pairs only: step 2's entry list when it covers every pair and no tile
  is dense, otherwise a list built for just those pairs.
* **dense** — for fill ``>= DENSE_MIN_FILL``: ``acc = 0``, then per live
  pair in pair order and per column ``c`` of ``A`` in order,
  ``acc += A[:, c] (outer) B[c, :]`` on the densified tiles, 128 ``C``
  tiles at a time; ``acc`` is then read through the step-2 mask.

The fill comes from step 2's per-pair product counts
(``SymbolicResult.pair_products``), so no dense tile's pair is expanded
per entry.  Both give every destination the same products in the same order (pair,
then ``A``'s column) summed from ``+0.0``; the dense path adds ``±0.0``
padding terms, which leave such a sum unchanged, so the bytes are equal.
A tile stays on the scatter path unless that argument holds for it: the
products are double precision, the operands are finite (``0 * inf`` is
``nan``) and the tile is not split across chunks.  ``force_accumulator``
forces the executed path too, on every tile where it holds.  The
crossover was measured on random tiles (one core of a 2-vCPU VM): dense
is 0.74x the scatter speed at fill 0.05, 1.06x at 0.08, 1.22x at 0.12 and
1.8x at 0.2.  The paper's rule is the wrong selector here: it marks almost
every ``C`` tile of ``conf5_4-8x8-05`` dense, at a product fill of 0.03.

The CUDA ``AtomicAdd`` becomes one ``np.bincount``-with-weights scatter-add
per chunk.  Product expansion is chunked so the working set stays
cache-resident — the CPU analogue of the kernels' on-chip shared-memory
accumulator.  A chunk makes ~44 B of temporaries per product, so the
default budget of ``1 << 18`` products keeps them near 11 MB.  Timed over
the numeric-bound benchmark matrices (one core of a 2-vCPU VM), step 3 is
flat between 2^17 and 2^19; below that the fixed per-chunk cost (a few
dozen numpy calls) shows (2^16: 9 % slower, 2^14: 28 %), and above it the
temporaries fall out of cache and are freshly page-faulted on every
chunk (2^20: 6 % slower, ``1 << 22``: 43 %).  Each chunk scatters into
its own window ``val_c[lo:hi]`` — the values of the C tiles its pairs
cover — with positions relative to ``lo``, so a chunk's ``bincount``
spans its window, not all of ``C``.  The ambient tracer gets the
sub-phases as spans: ``step3.expand``, ``step3.address`` and
``step3.scatter`` per chunk, ``step3.dense`` (attribute ``tiles``) for
the dense path, and ``step3.compact`` for ``C``'s local indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.backend import resolve_backend
from repro.core.pairs import LiveEntries, TilePairs, live_entries
from repro.core.step2 import SymbolicResult
from repro.core.tile_matrix import TileMatrix
from repro.obs.context import current_obs
from repro.util.arrays import concat_ranges, segment_positions

__all__ = [
    "NumericResult",
    "step3_numeric",
    "DEFAULT_TNNZ",
    "default_tnnz",
    "c_indices_from_masks",
]

#: The paper's accumulator-selection threshold: 75 % of a 16x16 tile.
DEFAULT_TNNZ: int = 192

#: Product fill — a C tile's products over ``pairs * T**3`` — from which
#: the tile takes the dense-tile path.  Measured crossover, see the module
#: docstring.
DENSE_MIN_FILL: float = 0.1

#: C tiles accumulated together on the dense-tile path: their accumulator,
#: products and operand tiles take 1 MB, which stays in a core's L2.
DENSE_GROUP_TILES: int = 128


def default_tnnz(tile_size: int) -> int:
    """The accumulator-selection threshold for a given tile size.

    The paper fixes 192 for its 16x16 tiles — 75 % of the tile's 256-slot
    capacity.  The same ratio is applied to other tile sizes so that the
    adaptive accumulator and the cost model's sparse/dense prediction
    (:mod:`repro.gpu.costmodel`) agree for every ``tile_size``, not just
    the paper's 16.

    Clamped to ``>= 1``: tile sizes below 2 would otherwise floor to a
    threshold of 0, silently forcing the dense path for every nonzero
    tile (``nnz > 0`` is true for any stored tile).
    """
    if tile_size == 16:
        return DEFAULT_TNNZ
    return max(1, (3 * tile_size * tile_size) // 4)


@dataclass
class NumericResult:
    """Output of the numeric phase.

    Attributes
    ----------
    rowidx, colidx:
        Local indices of ``C``'s nonzeros (derived from the step-2 masks).
    val:
        Values of ``C``'s nonzeros.
    num_products:
        Total intermediate products accumulated (``flops / 2``).
    sparse_tiles, dense_tiles:
        How many candidate tiles the paper's ``tnnz`` rule assigned each
        accumulator (cost-model input and ablation output; the CPU picks
        its executed path by product fill, and the values do not depend
        on either choice).
    """

    rowidx: np.ndarray
    colidx: np.ndarray
    val: np.ndarray
    num_products: int
    sparse_tiles: int
    dense_tiles: int
    #: per-candidate-tile accumulator choice (``None`` until the phase ran)
    use_dense: Optional[np.ndarray] = field(default=None)
    #: the resolved accumulator-selection threshold this phase ran with
    #: (``None`` only for hand-built results) — the workload profiler's
    #: tnnz-decision capture reads it from ``collect_stats``
    tnnz: Optional[int] = field(default=None)
    #: cumulative intermediate products per matched pair (``num_pairs + 1``
    #: entries, leading 0): ``np.diff(product_csum[pairs.pair_ptr])`` is
    #: the per-candidate-tile product count ``collect_stats`` reports
    product_csum: Optional[np.ndarray] = field(default=None)


def c_indices_from_masks(
    sym: SymbolicResult, tile_size: int, backend=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialise ``C``'s local (row, col) indices from the step-2 masks.

    The tile-compaction kernel (``nth_set_bit``) comes from ``backend``
    (see :func:`repro.backend.resolve_backend`).
    """
    kernels = resolve_backend(backend)
    pc_flat = kernels.popcount(sym.mask).reshape(-1)
    # Only the non-empty mask rows hold entries.
    rows = np.flatnonzero(pc_flat)
    pc = pc_flat[rows]
    rowidx = np.repeat((rows % tile_size).astype(np.uint8), pc)
    mask_rep = np.repeat(sym.mask.reshape(-1)[rows], pc)
    colidx = kernels.nth_set_bit(mask_rep, segment_positions(pc))
    return rowidx, colidx


def step3_numeric(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    sym: SymbolicResult,
    tnnz: Optional[int] = None,
    chunk_products: int = 1 << 18,
    force_accumulator: str | None = None,
    mask_filter: bool = False,
    value_dtype=np.float64,
    backend=None,
    live: LiveEntries | None = None,
) -> NumericResult:
    """Run the numeric phase.

    Parameters
    ----------
    a, b:
        Input tile matrices.
    pairs:
        Matched tile pairs from step 2's intersection.
    sym:
        Symbolic structure of ``C`` from step 2.
    tnnz:
        Accumulator-selection threshold.  ``None`` (the default) resolves
        to :func:`default_tnnz` — the paper's 192 for 16x16 tiles and the
        same 75 %-of-capacity ratio for other tile sizes, matching the
        cost model's sparse/dense prediction.
    chunk_products:
        Upper bound on intermediate products expanded at once.  The
        default ``1 << 18`` keeps a chunk's temporaries cache-resident:
        smaller budgets pay the per-chunk overhead more often, larger
        ones pay cache misses and page faults (see the module docstring).
        A tile whose products exceed the budget is split at pair
        boundaries, which changes its accumulation order; the default
        keeps whole every 16x16 tile of at most 64 fully dense pairs.
    force_accumulator:
        ``"sparse"`` or ``"dense"`` to disable the adaptive selection
        (ablation hook); ``None`` keeps the paper's recorded choice and
        picks the executed path by product fill.  ``"sparse"`` runs every
        tile on the scatter path, ``"dense"`` every tile with products on
        the dense path where its bytes are exact (see the module
        docstring).  The values are byte-identical either way.
    mask_filter:
        When true, products whose destination bit is absent from the
        step-2 masks are *dropped* instead of accumulated.  Plain SpGEMM
        never needs this (every product's position is in the mask by
        construction); the masked-SpGEMM extension ANDs the masks with an
        output mask first, making some products invalid.
    value_dtype:
        Dtype the per-product multiplications are performed in.  The
        default is double precision (the paper's main evaluation);
        ``np.float16`` emulates the half-precision mode of the tSparse
        comparison (products rounded to fp16, accumulation in fp64 like
        the tensor cores' wider accumulator).
    backend:
        Kernel set serving the popcounts, the popcount-rank, the
        scatter-add accumulate and the tile compaction — a registered
        name, a :class:`~repro.backend.KernelSet`, or ``None`` for the
        ambient default (:func:`repro.backend.resolve_backend`).
        Conformant backends are byte-identical, so this changes speed,
        never the result.
    live:
        Step 2's entry list (:func:`~repro.core.step2.step2_entries`, or
        any :func:`~repro.core.pairs.live_entries` of the pairs).  It is
        reused when it covers every pair and no tile takes the dense
        path; otherwise the scatter tiles' pairs are expanded here.
    """
    kernels = resolve_backend(backend)
    tracer = current_obs().tracer
    T = a.tile_size
    if tnnz is None:
        tnnz = default_tnnz(T)
    num_c = pairs.num_c_tiles
    val_c = np.zeros(sym.nnz, dtype=np.float64)

    # --- accumulator selection per candidate tile -----------------------
    # The paper's choice, recorded for the cost model, the profiler and the
    # ablations; the CPU picks its executed path by product fill below.
    if force_accumulator == "sparse":
        use_dense = np.zeros(num_c, dtype=bool)
    elif force_accumulator == "dense":
        use_dense = np.ones(num_c, dtype=bool)
    elif force_accumulator is None:
        use_dense = sym.tile_nnz_counts > tnnz
    else:
        raise ValueError(f"force_accumulator must be 'sparse', 'dense' or None")
    num_dense = int(use_dense.sum())

    full = live is not None and live.select is None  # step 2 expanded every pair
    if full:
        pair_csum = live.csum
    else:
        pair_csum = np.zeros(pairs.num_pairs + 1, dtype=np.int64)
        np.cumsum(sym.pair_products, out=pair_csum[1:])
    dense = _dense_path_tiles(
        a, b, pairs, pair_csum, chunk_products, force_accumulator, value_dtype
    )
    if full and dense.size == 0:
        scatter = live
    else:
        scatter = _scatter_entries(a, b, pairs, sym, dense, kernels)
    entry_ptr, csum = scatter.entry_ptr, scatter.csum

    # --- chunked expansion + scatter-add --------------------------------
    # Chunk ends are rounded down to C-tile boundaries (``pairs.pair_ptr``)
    # whenever that still makes progress, so no tile's products straddle a
    # chunk.  A tile's accumulation order then depends only on its own pair
    # sequence and the chunk budget — never on which other tiles share the
    # run — which is what makes chunked re-execution and sharded parallel
    # execution bit-identical to the single-shot product.  A single tile
    # whose products exceed the budget is chunked internally at tile-local
    # offsets, which are equally partition-invariant.  The dense path's
    # tiles are left out: their pairs read as dead here.
    start = 0
    num_pairs = pairs.num_pairs
    tile_bounds = pairs.pair_ptr
    pair_c_slot = pairs.pair_c_slot()
    while start < num_pairs:
        end = int(np.searchsorted(csum, csum[start] + chunk_products, side="left"))
        end = max(end, start + 1)
        end = min(end, num_pairs)
        if end < num_pairs:
            aligned = int(
                tile_bounds[np.searchsorted(tile_bounds, end, side="right") - 1]
            )
            if aligned > start:
                end = aligned
        part = slice(entry_ptr[start], entry_ptr[end])
        if part.stop > part.start:
            # The chunk's window of C's values, from its first and last
            # *pair* (a first live entry would skip leading dead pairs).
            lo = int(sym.tilennz[pair_c_slot[start]])
            hi = int(sym.tilennz[pair_c_slot[end - 1] + 1])
            _accumulate_chunk(
                a, b, pairs, sym, val_c[lo:hi], lo, pair_c_slot, scatter.a_idx[part],
                scatter.pair_of[part], scatter.row_len[part], mask_filter, value_dtype,
                kernels, tracer,
            )
        start = end
    del scatter, pair_c_slot
    if dense.size:
        with tracer.span("step3.dense", cat="substep", tiles=int(dense.size)):
            _accumulate_dense(a, b, pairs, sym, pair_csum, dense, val_c)

    with tracer.span("step3.compact", cat="substep"):
        rowidx_c, colidx_c = c_indices_from_masks(sym, T, backend=kernels)
    return NumericResult(
        rowidx=rowidx_c,
        colidx=colidx_c,
        val=val_c,
        num_products=int(pair_csum[-1]),
        sparse_tiles=int(num_c - num_dense),
        dense_tiles=num_dense,
        use_dense=use_dense,
        tnnz=int(tnnz),
        product_csum=pair_csum,
    )


def _accumulate_chunk(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    sym: SymbolicResult,
    window: np.ndarray,
    lo: int,
    pair_c_slot: np.ndarray,
    a_idx: np.ndarray,
    pair_of: np.ndarray,
    row_len: np.ndarray,
    mask_filter: bool,
    value_dtype,
    kernels,
    tracer,
) -> None:
    """Expand a chunk's live entries into products and scatter-add them.

    ``window`` is the view ``val_c[lo:hi]`` of the C tiles the chunk
    touches; positions are computed relative to ``lo``.
    """
    with tracer.span("step3.expand", cat="substep"):
        slot = pair_c_slot[pair_of]
        b_tile = pairs.pair_b[pair_of]
        r = a.rowidx[a_idx]
        c = a.colidx[a_idx]
        b_idx = concat_ranges(b.tilennz[b_tile] + b.rowptr[b_tile, c], row_len)
        if np.dtype(value_dtype) == np.float64:
            products = np.repeat(a.val[a_idx], row_len)
            products *= b.val[b_idx]
        else:
            # Reduced-precision multiply, wider accumulate (tensor-core style).
            products = (
                np.repeat(a.val[a_idx].astype(value_dtype), row_len)
                * b.val[b_idx].astype(value_dtype)
            ).astype(np.float64)
        b_col = b.colidx[b_idx]
        del b_idx  # before the address temporaries: lowers the peak
    # The sparse accumulator's address, for every product: the base offset
    # of its destination C row plus the rank of its column among that
    # row's mask bits.
    with tracer.span("step3.address", cat="substep"):
        row_mask = np.repeat(sym.mask[slot, r], row_len)
        pos = np.repeat(sym.tilennz[slot] - lo + sym.rowptr[slot, r], row_len)
        pos += kernels.prefix_popcount(row_mask, b_col)
        if mask_filter:
            # Masked SpGEMM: drop products whose destination is outside the
            # (already mask-ANDed) step-2 structure.
            in_mask = (row_mask >> b_col) & 1 == 1
            pos, products = pos[in_mask], products[in_mask]
    with tracer.span("step3.scatter", cat="substep"):
        kernels.scatter_add_into(window, pos, products)


def _dense_path_tiles(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    csum: np.ndarray,
    chunk_products: int,
    force_accumulator: str | None,
    value_dtype,
) -> np.ndarray:
    """The C tiles (ascending slots) that step 3 accumulates as dense tiles.

    A tile qualifies by product fill (``DENSE_MIN_FILL`` of its matched
    pairs' ``T**3``, or any product under ``force_accumulator="dense"``)
    if the dense path gives its scatter bytes: double precision, no split
    across chunks, and finite operands (``0 * inf`` is ``nan``).
    """
    none = np.empty(0, dtype=np.int64)
    if force_accumulator == "sparse" or np.dtype(value_dtype) != np.float64:
        return none
    T = a.tile_size
    tile_products = np.diff(csum[pairs.pair_ptr])
    if force_accumulator == "dense":
        wanted = tile_products > 0
    else:
        wanted = tile_products >= DENSE_MIN_FILL * T**3 * pairs.matched
    wanted &= tile_products <= chunk_products
    tiles = np.flatnonzero(wanted)
    if tiles.size and not (np.isfinite(a.val).all() and np.isfinite(b.val).all()):
        return none
    return tiles


def _scatter_entries(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    sym: SymbolicResult,
    dense: np.ndarray,
    kernels,
) -> LiveEntries:
    """The live entries of the pairs with products of every C tile not in ``dense``.

    The dense tiles' pairs read as dead, so the chunk loop's tile-local
    cuts are unchanged.
    """
    need = sym.pair_products > 0
    if dense.size:
        drop = np.zeros(pairs.num_c_tiles, dtype=bool)
        drop[dense] = True
        need &= ~np.repeat(drop, np.diff(pairs.pair_ptr))
    return live_entries(a, b, pairs, kernels, need)


def _accumulate_dense(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    sym: SymbolicResult,
    pair_csum: np.ndarray,
    tiles: np.ndarray,
    val_c: np.ndarray,
) -> None:
    """Accumulate ``tiles`` as dense ``T x T`` tiles into their ``val_c`` slots.

    Per tile: ``acc = 0``, then for each live pair in pair order and each
    column ``c`` of ``A`` in order, ``acc += A[:, c] (outer) B[c, :]``.
    Every destination sees the scatter path's products in the scatter
    path's order, plus ``±0.0`` terms from the padding, which leave a sum
    begun at ``+0.0`` unchanged.  ``acc`` is then read through the step-2
    mask, row-major: the compacted tile's order.
    """
    T = a.tile_size
    tile_pairs = np.diff(pairs.pair_ptr)[tiles]
    pair_idx = concat_ranges(pairs.pair_ptr[tiles], tile_pairs)
    alive = pair_csum[pair_idx + 1] > pair_csum[pair_idx]
    pair_idx = pair_idx[alive]
    # Tile i owns the live pairs pair_idx[live_ptr[i]:live_ptr[i + 1]].
    alive_csum = np.zeros(alive.size + 1, dtype=np.int64)
    np.cumsum(alive, out=alive_csum[1:])
    live_ptr = alive_csum[np.r_[0, np.cumsum(tile_pairs)]]
    bit = np.arange(T, dtype=sym.mask.dtype)
    for g0 in range(0, tiles.size, DENSE_GROUP_TILES):
        g1 = min(g0 + DENSE_GROUP_TILES, tiles.size)
        lo, hi = int(live_ptr[g0]), int(live_ptr[g1])
        group_pairs = pair_idx[lo:hi]
        a_tiles, a_of = np.unique(pairs.pair_a[group_pairs], return_inverse=True)
        b_tiles, b_of = np.unique(pairs.pair_b[group_pairs], return_inverse=True)
        a_cols = a.dense_tiles(a_tiles).transpose(0, 2, 1)
        b_rows = b.dense_tiles(b_tiles)
        # Tiles by descending live-pair count: the tiles with a k-th pair
        # are then a prefix of the group.
        counts = np.diff(live_ptr[g0:g1 + 1])
        order = np.argsort(-counts, kind="stable")
        first = live_ptr[g0:g1][order] - lo
        counts = counts[order]
        acc = np.zeros((g1 - g0, T, T))
        prod = np.empty_like(acc)
        for k in range(int(counts[0])):
            n = int(np.count_nonzero(counts > k))
            at = a_cols[a_of[first[:n] + k]]
            bt = b_rows[b_of[first[:n] + k]]
            for c in range(T):
                np.multiply(at[:, c, :, None], bt[:, c, None, :], out=prod[:n])
                np.add(acc[:n], prod[:n], out=acc[:n])
        slots = tiles[g0:g1][order]
        in_mask = (sym.mask[slots][:, :, None] >> bit) & 1 == 1
        dst = concat_ranges(sym.tilennz[slots], sym.tile_nnz_counts[slots])
        val_c[dst] = acc[in_mask]
