"""Masked SpGEMM extension: ``C = (A @ B) .* M`` on the tiled format.

GraphBLAS workloads — the paper's triangle counting and BFS motivations —
rarely need the full product: they need it *restricted to an output mask*
(for triangles, ``sum(L .* (L @ L))``).  The paper's tiled format makes
the masked variant almost free, because masks are already the format's
symbolic currency:

1. candidate tiles of ``C`` are intersected with ``M``'s tile layout —
   whole tiles outside the mask are never touched;
2. the step-2 bit masks are ANDed with ``M``'s bit masks — the output
   structure shrinks to the masked positions before any value is computed;
3. step 3 drops the intermediate products whose destination bit was
   masked away (everything else is unchanged).

This is an *extension* beyond the paper (its future-work direction of
GraphBLAS integration); it reuses the three-step machinery and is
validated against dense masking in the tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.pairs import TilePairs, enumerate_pairs_expand
from repro.core.step2 import SymbolicResult, step2_entries, step2_symbolic
from repro.core.step3 import step3_numeric
from repro.core.tile_matrix import TileMatrix
from repro.core.tilespgemm import TileSpGEMMResult, _tileptr_from_rows, collect_stats
from repro.core.step1 import TileLayout
from repro.util.alloc import AllocationTracker
from repro.util.bits import popcount16
from repro.util.timing import PhaseTimer

__all__ = ["masked_tile_spgemm"]


def _subset_pairs(pairs: TilePairs, keep: np.ndarray) -> TilePairs:
    """Restrict a pair set to the candidate tiles selected by ``keep``."""
    counts = np.diff(pairs.pair_ptr)
    pair_keep = np.repeat(keep, counts)
    new_counts = counts[keep]
    pair_ptr = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
    np.cumsum(new_counts, out=pair_ptr[1:])
    return TilePairs(
        c_tilerow=pairs.c_tilerow[keep],
        c_tilecol=pairs.c_tilecol[keep],
        pair_ptr=pair_ptr,
        pair_a=pairs.pair_a[pair_keep],
        pair_b=pairs.pair_b[pair_keep],
        len_a=pairs.len_a[keep],
        len_b=pairs.len_b[keep],
    )


def masked_tile_spgemm(
    a: TileMatrix,
    b: TileMatrix,
    mask: TileMatrix,
    tnnz: Optional[int] = None,
    keep_empty_tiles: bool = False,
) -> TileSpGEMMResult:
    """Compute ``C = (A @ B) .* pattern(M)`` entirely in tiled form.

    Parameters
    ----------
    a, b:
        Inputs in tiled form with equal tile sizes.
    mask:
        Output mask; only positions stored in ``mask`` (regardless of
        value) survive in ``C``.  Must have the product's shape and the
        same tile size.
    tnnz:
        Adaptive-accumulator threshold, as in :func:`tile_spgemm`
        (``None`` resolves to the tile size's 75 %-of-capacity default).
    keep_empty_tiles:
        Masked products produce many empty candidate tiles; they are
        compacted away by default.

    Returns
    -------
    TileSpGEMMResult
        With ``stats["masked"] = True`` and the usual timers/ledger.
    """
    if a.tile_size != b.tile_size or a.tile_size != mask.tile_size:
        raise ValueError("A, B and the mask must share one tile size")
    if a.shape[1] != b.shape[0]:
        raise ValueError("dimension mismatch between A and B")
    if mask.shape != (a.shape[0], b.shape[1]):
        raise ValueError(
            f"mask shape {mask.shape} does not match product shape "
            f"{(a.shape[0], b.shape[1])}"
        )
    T = a.tile_size
    timer = PhaseTimer()
    alloc = AllocationTracker()

    # ------------------------------------------------ step 1 + tile masking
    alloc.set_phase("step1")
    with timer.phase("step1"):
        pairs = enumerate_pairs_expand(a, b)
        ntc = max(mask.num_tile_cols, 1)
        cand_key = pairs.c_tilerow * ntc + pairs.c_tilecol
        mask_key = mask.tile_rowidx() * ntc + mask.tilecolidx
        # Candidate tiles that exist in the mask's tile layout.
        pos = np.searchsorted(mask_key, cand_key)
        pos = np.minimum(pos, max(mask_key.size - 1, 0))
        keep = (
            mask_key[pos] == cand_key
            if mask_key.size
            else np.zeros(cand_key.size, dtype=bool)
        )
        pairs = _subset_pairs(pairs, keep)
        mask_tile_of_cand = pos[keep]  # index into mask's tile arrays
    with timer.phase("malloc"):
        alloc.alloc("tilePtr_C", (a.num_tile_rows + 1) * 4)
        alloc.alloc("tileColIdx_C", pairs.num_c_tiles * 4)

    # --------------------------------------------- step 2 + bit-mask ANDing
    alloc.set_phase("step2")
    with timer.phase("step2"):
        live = step2_entries(a, b, pairs)
        sym = step2_symbolic(a, b, pairs, live=live)
        sym.mask &= mask.mask[mask_tile_of_cand]
        counts_per_row = popcount16(sym.mask).astype(np.int64)
        rowptr = np.zeros_like(counts_per_row)
        if counts_per_row.size:
            np.cumsum(counts_per_row[:, :-1], axis=1, out=rowptr[:, 1:])
        sym = SymbolicResult(
            mask=sym.mask,
            rowptr=rowptr.astype(sym.rowptr.dtype),
            tilennz=np.concatenate(
                [[0], np.cumsum(counts_per_row.sum(axis=1))]
            ).astype(np.int64),
            tile_nnz_counts=counts_per_row.sum(axis=1),
            symbolic_ops=sym.symbolic_ops,
            pair_a_nnz=sym.pair_a_nnz,
            pair_products=sym.pair_products,
        )
    with timer.phase("malloc"):
        alloc.alloc("tileNnz_C", (pairs.num_c_tiles + 1) * 4)
        alloc.alloc("mask_C", pairs.num_c_tiles * T * sym.mask.dtype.itemsize)
        alloc.alloc("val_C", sym.nnz * 8)

    # ------------------------------------------------------------- step 3
    alloc.set_phase("step3")
    with timer.phase("step3"):
        num = step3_numeric(a, b, pairs, sym, tnnz=tnnz, mask_filter=True, live=live)

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

    layout = TileLayout(
        num_tile_rows=a.num_tile_rows,
        num_tile_cols=max(b.num_tile_cols, 1),
        tileptr=_tileptr_from_rows(pairs.c_tilerow, a.num_tile_rows),
        tilecolidx=pairs.c_tilecol,
        tile_flops=0,
    )
    stats = collect_stats(a, b, pairs, sym, num, layout)
    stats["masked"] = True
    return TileSpGEMMResult(
        c=c, timer=timer, alloc=alloc, stats=stats, pairs=pairs, symbolic=sym
    )
