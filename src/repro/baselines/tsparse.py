"""tSparse-like SpGEMM: dense tile multiplication (tensor-core strategy).

Zachariadis et al.'s tSparse stores matrices as tiles like TileSpGEMM, but
multiplies matched tile pairs as *dense* 16x16 GEMMs on the GPU's tensor
cores (half-precision inputs), converting each resulting dense tile back
to sparse form.  The paper's Figures 13/14 show why this loses to sparse
tile multiplication on sparse tiles: the dense products waste the tiles'
sparsity (``T^3`` MACs per pair regardless of tile population), and the
repeated resizing of the dense result buffers makes its memory-allocation
phase dominant.

This implementation performs genuine dense tile GEMMs with batched
``matmul`` over the matched pairs (chunked to bound memory), and charges
the allocator for the densified tile buffers.  A ``dtype`` knob mimics the
half-precision mode of the original library (used by the Figure 13 bench);
correctness tests run it in float64.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import InvalidInputError
from repro.baselines.base import SpGEMMResult, flops_of_product, register
from repro.core.pairs import enumerate_pairs_expand
from repro.core.tile_matrix import TILE, TileMatrix
from repro.formats.csr import CSRMatrix
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer

__all__ = ["tsparse_spgemm"]


@register("tsparse")
def tsparse_spgemm(
    a: CSRMatrix,
    b: CSRMatrix,
    tile_size: int = TILE,
    dtype=np.float64,
    chunk_pairs: int = 1 << 14,
    a_tiled: Optional[TileMatrix] = None,
    b_tiled: Optional[TileMatrix] = None,
) -> SpGEMMResult:
    """Multiply ``a @ b`` with dense tile-pair GEMMs (tSparse strategy).

    Parameters
    ----------
    a, b:
        Inputs in CSR form (tiled forms are built here, like tSparse's own
        conversion step; pass ``a_tiled``/``b_tiled`` to reuse existing
        conversions).
    dtype:
        Computation dtype of the dense tile GEMMs.  ``np.float16`` mimics
        the tensor-core half-precision mode of the original library.
    chunk_pairs:
        Tile pairs multiplied per batched GEMM call (bounds peak memory).
    """
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError("dimension mismatch")
    timer = PhaseTimer()
    alloc = AllocationTracker()
    T = tile_size

    alloc.set_phase("tiling")
    with timer.phase("tiling"):
        at = a_tiled if a_tiled is not None else TileMatrix.from_csr(a, T)
        bt = b_tiled if b_tiled is not None else TileMatrix.from_csr(b, T)
        pairs = enumerate_pairs_expand(at, bt)
    itemsize = np.dtype(dtype).itemsize
    with timer.phase("malloc"):
        alloc.alloc("dense_tiles_A", at.num_tiles * T * T * itemsize)
        alloc.alloc("dense_tiles_B", bt.num_tiles * T * T * itemsize)
        # tSparse resizes C's dense tile buffer as candidate tiles appear;
        # model the documented repeated-resize behaviour as 1.5x the final
        # size having been live at the peak.
        alloc.alloc("dense_tiles_C", int(pairs.num_c_tiles * T * T * itemsize * 1.5))

    with timer.phase("densify"):
        dense_a = at.dense_tiles(dtype=dtype)
        dense_b = bt.dense_tiles(dtype=dtype)

    num_c = pairs.num_c_tiles
    dense_c = np.zeros((num_c, T, T), dtype=np.float64)
    slots = pairs.pair_c_slot()
    with timer.phase("numeric"):
        for start in range(0, pairs.num_pairs, chunk_pairs):
            end = min(start + chunk_pairs, pairs.num_pairs)
            prod = np.matmul(
                dense_a[pairs.pair_a[start:end]], dense_b[pairs.pair_b[start:end]]
            )
            np.add.at(dense_c, slots[start:end], prod.astype(np.float64))

    with timer.phase("sparsify"):
        tile_slot, r, ccol = np.nonzero(dense_c)
        rows = pairs.c_tilerow[tile_slot] * T + r
        cols = pairs.c_tilecol[tile_slot] * T + ccol
        vals = dense_c[tile_slot, r, ccol]
        from repro.formats.coo import COOMatrix

        c = COOMatrix((a.shape[0], b.shape[1]), rows, cols, vals).to_csr()
    with timer.phase("malloc"):
        alloc.alloc("C_indptr", (c.nrows + 1) * 4)
        alloc.alloc("C_indices", c.nnz * 4)
        alloc.alloc("C_val", c.nnz * 8)
    alloc.free("dense_tiles_A")
    alloc.free("dense_tiles_B")
    alloc.free("dense_tiles_C")

    flops = flops_of_product(a, b)
    return SpGEMMResult(
        c=c,
        method="tsparse",
        timer=timer,
        alloc=alloc,
        stats={
            "flops": flops,
            "num_products": flops // 2,
            "nnz_c": c.nnz,
            "num_pairs": pairs.num_pairs,
            "dense_macs": pairs.num_pairs * T * T * T,
            "num_c_tiles": num_c,
            "tile_size": T,
        },
    )
