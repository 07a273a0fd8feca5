"""Step 3 of TileSpGEMM: the numeric phase (paper §3.3, Algorithm 3).

With ``C``'s per-tile structure known from step 2, this step computes the
values.  For every matched pair ``(A_ik, B_kj)`` and every nonzero
``a = (r, c, v)`` of the ``A`` tile, the products ``v * B_kj[c, *]`` are
accumulated into row ``r`` of the ``C`` tile.

The paper's *adaptive accumulator* is reproduced faithfully:

* **sparse accumulator** (tiles with ``nnz <= tnnz``, default 192 = 75 % of
  256): each product's destination offset inside the compacted tile is
  computed as ``rowptr[r] + rank`` where ``rank`` is the popcount of the
  tile row's mask bits below the product's column — the paper's
  mask-indexed direct accumulation;
* **dense accumulator** (denser tiles): products scatter-add into a dense
  ``T*T`` scratch tile, which is compacted through the mask afterwards.

The CUDA ``AtomicAdd`` becomes a ``np.bincount``-with-weights scatter-add.
Product expansion is chunked so peak temporary memory stays bounded — the
Python analogue of the kernels' bounded shared-memory working set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.backend import resolve_backend
from repro.core.pairs import TilePairs
from repro.core.step2 import SymbolicResult
from repro.core.tile_matrix import TileMatrix
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
        How many candidate tiles used each accumulator (cost-model input
        and ablation output).
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
    T = tile_size
    pc_flat = _row_popcounts(sym, kernels).reshape(-1)
    num_c = sym.mask.shape[0]
    rowidx = np.repeat(np.tile(np.arange(T, dtype=np.uint8), num_c), pc_flat)
    mask_rep = np.repeat(sym.mask.reshape(-1), pc_flat)
    rank = segment_positions(pc_flat)
    colidx = kernels.nth_set_bit(mask_rep, rank)
    return rowidx, colidx


def _row_popcounts(sym: SymbolicResult, kernels) -> np.ndarray:
    return kernels.popcount(sym.mask).astype(np.int64)


def step3_numeric(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    sym: SymbolicResult,
    tnnz: Optional[int] = None,
    chunk_products: int = 1 << 22,
    force_accumulator: str | None = None,
    mask_filter: bool = False,
    value_dtype=np.float64,
    backend=None,
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
        Upper bound on intermediate products expanded at once.
    force_accumulator:
        ``"sparse"`` or ``"dense"`` to disable the adaptive selection
        (ablation hook); ``None`` keeps the paper's behaviour.
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
    """
    kernels = resolve_backend(backend)
    T = a.tile_size
    if tnnz is None:
        tnnz = default_tnnz(T)
    num_c = pairs.num_c_tiles
    nnz_c = sym.nnz
    val_c = np.zeros(nnz_c, dtype=np.float64)

    # --- accumulator selection per candidate tile -----------------------
    if force_accumulator == "sparse":
        use_dense = np.zeros(num_c, dtype=bool)
    elif force_accumulator == "dense":
        use_dense = np.ones(num_c, dtype=bool)
    elif force_accumulator is None:
        use_dense = sym.tile_nnz_counts > tnnz
    else:
        raise ValueError(f"force_accumulator must be 'sparse', 'dense' or None")
    dense_slot = np.cumsum(use_dense) - 1  # compacted id among dense tiles
    num_dense = int(use_dense.sum())
    dense_buf = np.zeros(num_dense * T * T, dtype=np.float64)

    # --- per-pair product counts for chunking ---------------------------
    b_counts = b.tile_nnz_counts()
    # Row lengths of every B tile: popcount of its masks.
    b_row_len = kernels.popcount(b.mask).astype(np.int64)  # (num_tiles_B, T)
    # Global start of row c of B tile t: tilennz_B[t] + rowptr_B[t, c].
    b_row_start = b.tilennz[:-1, None] + b.rowptr.astype(np.int64)

    pair_c_slot = pairs.pair_c_slot()
    a_counts = a.tile_nnz_counts()
    pair_products = _pair_product_counts(a, b_row_len, pairs, a_counts)
    total_products = int(pair_products.sum())

    # --- chunked expansion + scatter-add --------------------------------
    # Chunk ends are rounded down to C-tile boundaries (``pairs.pair_ptr``)
    # whenever that still makes progress, so no tile's products straddle a
    # chunk.  A tile's accumulation order then depends only on its own pair
    # sequence and the chunk budget — never on which other tiles share the
    # run — which is what makes chunked re-execution and sharded parallel
    # execution bit-identical to the single-shot product.  A single tile
    # whose products exceed the budget is chunked internally at tile-local
    # offsets, which are equally partition-invariant.
    start = 0
    num_pairs = pairs.num_pairs
    csum = np.zeros(num_pairs + 1, dtype=np.int64)
    np.cumsum(pair_products, out=csum[1:])
    tile_bounds = pairs.pair_ptr
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
        _accumulate_chunk(
            a, b, pairs, sym, val_c, dense_buf, use_dense, dense_slot,
            pair_c_slot, a_counts, b_row_len, b_row_start, start, end, T,
            mask_filter, value_dtype, kernels,
        )
        start = end

    # --- compact the dense scratch tiles through the masks --------------
    rowidx_c, colidx_c = c_indices_from_masks(sym, T, backend=kernels)
    if num_dense:
        tile_of_nnz = np.repeat(np.arange(num_c, dtype=np.int64), sym.tile_nnz_counts)
        in_dense = use_dense[tile_of_nnz]
        d_slot = dense_slot[tile_of_nnz[in_dense]]
        pos = (
            d_slot * T * T
            + rowidx_c[in_dense].astype(np.int64) * T
            + colidx_c[in_dense].astype(np.int64)
        )
        val_c[in_dense] = dense_buf[pos]

    return NumericResult(
        rowidx=rowidx_c,
        colidx=colidx_c,
        val=val_c,
        num_products=total_products,
        sparse_tiles=int(num_c - num_dense),
        dense_tiles=num_dense,
        use_dense=use_dense,
        tnnz=int(tnnz),
        product_csum=csum,
    )


def _pair_product_counts(
    a: TileMatrix, b_row_len: np.ndarray, pairs: TilePairs, a_counts: np.ndarray
) -> np.ndarray:
    """Number of intermediate products generated by each matched pair."""
    if pairs.num_pairs == 0:
        return np.zeros(0, dtype=np.int64)
    counts = np.zeros(pairs.num_pairs, dtype=np.int64)
    # For pair p, sum over A-tile nonzeros (r, c) of len(B_tile row c).
    pair_a_nnz = a_counts[pairs.pair_a]
    a_nnz_idx = concat_ranges(a.tilennz[pairs.pair_a], pair_a_nnz)
    pair_of_nnz = np.repeat(np.arange(pairs.num_pairs, dtype=np.int64), pair_a_nnz)
    lengths = b_row_len[pairs.pair_b[pair_of_nnz], a.colidx[a_nnz_idx].astype(np.int64)]
    np.add.at(counts, pair_of_nnz, lengths)
    return counts


def _accumulate_chunk(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    sym: SymbolicResult,
    val_c: np.ndarray,
    dense_buf: np.ndarray,
    use_dense: np.ndarray,
    dense_slot: np.ndarray,
    pair_c_slot: np.ndarray,
    a_counts: np.ndarray,
    b_row_len: np.ndarray,
    b_row_start: np.ndarray,
    start: int,
    end: int,
    T: int,
    mask_filter: bool = False,
    value_dtype=np.float64,
    kernels=None,
) -> None:
    """Expand pairs [start, end) into products and scatter-add them."""
    kernels = resolve_backend(kernels)
    p_slice = slice(start, end)
    pa = pairs.pair_a[p_slice]
    pb = pairs.pair_b[p_slice]
    slots = pair_c_slot[p_slice]

    # Level 1: expand pairs into A-tile nonzeros.
    nnz_a = a_counts[pa]
    a_idx = concat_ranges(a.tilennz[pa], nnz_a)
    local_pair = np.repeat(np.arange(pa.size, dtype=np.int64), nnz_a)
    r = a.rowidx[a_idx].astype(np.int64)
    c = a.colidx[a_idx].astype(np.int64)
    va = a.val[a_idx]
    b_tile = pb[local_pair]
    slot_of_nnz = slots[local_pair]

    # Level 2: expand each A nonzero into B's matching tile row.
    seg_len = b_row_len[b_tile, c]
    b_idx = concat_ranges(b_row_start[b_tile, c], seg_len)
    src = np.repeat(np.arange(a_idx.size, dtype=np.int64), seg_len)
    if np.dtype(value_dtype) == np.float64:
        products = va[src] * b.val[b_idx]
    else:
        # Reduced-precision multiply, wider accumulate (tensor-core style).
        products = (
            va[src].astype(value_dtype) * b.val[b_idx].astype(value_dtype)
        ).astype(np.float64)
    prod_slot = slot_of_nnz[src]
    prod_r = r[src]
    prod_col = b.colidx[b_idx].astype(np.int64)

    if mask_filter:
        # Masked SpGEMM: drop products whose destination is outside the
        # (already mask-ANDed) step-2 structure.
        in_mask = (
            sym.mask[prod_slot, prod_r].astype(np.int64) >> prod_col
        ) & 1 == 1
        products = products[in_mask]
        prod_slot = prod_slot[in_mask]
        prod_r = prod_r[in_mask]
        prod_col = prod_col[in_mask]

    dense_sel = use_dense[prod_slot]
    if dense_sel.any():
        sel = dense_sel
        pos = (
            dense_slot[prod_slot[sel]] * T * T
            + prod_r[sel] * T
            + prod_col[sel]
        )
        kernels.scatter_add_into(dense_buf, pos, products[sel])
    if not dense_sel.all():
        sel = ~dense_sel
        slot_s = prod_slot[sel]
        r_s = prod_r[sel]
        col_s = prod_col[sel]
        rank = kernels.prefix_popcount(sym.mask[slot_s, r_s], col_s).astype(np.int64)
        pos = (
            sym.tilennz[slot_s]
            + sym.rowptr[slot_s, r_s].astype(np.int64)
            + rank
        )
        kernels.scatter_add_into(val_c, pos, products[sel])
