"""Step 2 of TileSpGEMM: the symbolic phase (paper §3.3, Algorithm 2).

Given the candidate tiles of ``C`` and the matched ``(A_ik, B_kj)`` tile
pairs, this step determines each candidate tile's bit masks, row pointer
and nonzero count — everything needed to allocate ``C`` — without touching
values.

The kernel is the paper's Figure 5 verbatim, vectorised: for every matched
pair, every nonzero of the ``A`` tile (local position ``(r, c)``) ORs the
``c``-th row mask of the ``B`` tile onto the ``r``-th row mask of the ``C``
tile.  An OR with an empty ``B`` row is a no-op, so only step 3's live
entries (:func:`repro.core.pairs.live_entries`) are ORed; ``symbolic_ops``
still counts one per (pair, ``A``-tile nonzero).  The CUDA ``AtomicOr``
becomes an unbuffered ``np.bitwise_or.at`` scatter; the per-tile row
pointers then fall out of mask popcounts plus a prefix scan, as in the paper.

All working state of this step is bounded by ``num_c_tiles * tile_size``
mask words — the Python analogue of the paper's claim that step 2 runs
entirely in on-chip scratchpad memory with no global intermediate arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import resolve_backend
from repro.core.pairs import LiveEntries, TilePairs, live_entries
from repro.core.tile_matrix import TileMatrix, mask_dtype_for

__all__ = ["SymbolicResult", "step2_symbolic"]


@dataclass
class SymbolicResult:
    """Output of the symbolic phase for the candidate tiles of ``C``.

    Attributes
    ----------
    mask:
        ``(num_c_tiles, T)`` row masks of every candidate tile.
    rowptr:
        ``(num_c_tiles, T)`` per-tile CSR row pointers (paper convention:
        ``T`` entries, the implicit last offset is the tile's nnz).
    tilennz:
        ``(num_c_tiles + 1)`` offsets of each tile's nonzeros in the value
        array to be allocated.
    tile_nnz_counts:
        Per-tile nonzero counts (``diff(tilennz)``).
    symbolic_ops:
        Number of mask-OR operations performed (cost-model input): one per
        (pair, A-tile nonzero).
    pair_a_nnz:
        Per-pair nonzero count of the pair's ``A`` tile (cost-model input).
    """

    mask: np.ndarray
    rowptr: np.ndarray
    tilennz: np.ndarray
    tile_nnz_counts: np.ndarray
    symbolic_ops: int
    pair_a_nnz: np.ndarray

    @property
    def nnz(self) -> int:
        """Total nonzeros of ``C`` (sum over candidate tiles)."""
        return int(self.tilennz[-1])


def step2_symbolic(
    a: TileMatrix, b: TileMatrix, pairs: TilePairs, backend=None, live: LiveEntries | None = None
) -> SymbolicResult:
    """Run the symbolic phase over all candidate tiles at once.

    ``backend`` selects the kernel set for the mask OR-accumulate and the
    popcounts (a name, a :class:`~repro.backend.KernelSet`, or ``None``
    for the ambient default — see :func:`repro.backend.resolve_backend`).
    ``live`` (the pairs' :func:`~repro.core.pairs.live_entries`) is built if ``None``.
    """
    kernels = resolve_backend(backend)
    T = a.tile_size
    if T != b.tile_size:
        raise ValueError("A and B must use the same tile size")
    if T > 16:
        raise ValueError("the SpGEMM kernels support tile sizes up to 16")
    mask_dtype = mask_dtype_for(T)
    num_c = pairs.num_c_tiles
    mask_c = np.zeros((num_c, T), dtype=mask_dtype)

    a_counts = a.tile_nnz_counts()
    pair_a_nnz = a_counts[pairs.pair_a] if pairs.num_pairs else np.empty(0, dtype=np.int64)

    if live is None:
        live = live_entries(a, b, pairs, kernels)
    # AtomicOr(mask_C[slot, r], mask_B[b_tile, c]) for every live A nonzero.
    tile_entries = np.diff(live.entry_ptr[pairs.pair_ptr])
    dst = np.repeat(np.arange(num_c, dtype=np.int64) * T, tile_entries)
    dst += a.rowidx[live.a_idx]
    src = pairs.pair_b[live.pair_of]
    src *= T
    src += a.colidx[live.a_idx]
    kernels.mask_or_into(mask_c.reshape(-1), dst, b.mask.reshape(-1)[src])
    del dst, src
    symbolic_ops = int(pair_a_nnz.sum())

    counts_per_row = kernels.popcount(mask_c).astype(np.int64)
    rowptr = np.zeros_like(counts_per_row)
    if num_c:
        np.cumsum(counts_per_row[:, :-1], axis=1, out=rowptr[:, 1:])
    tile_counts = counts_per_row.sum(axis=1) if num_c else np.zeros(0, dtype=np.int64)
    tilennz = np.zeros(num_c + 1, dtype=np.int64)
    np.cumsum(tile_counts, out=tilennz[1:])

    rowptr_dtype = np.uint8 if T * T <= 256 else np.uint16
    return SymbolicResult(
        mask=mask_c,
        rowptr=rowptr.astype(rowptr_dtype),
        tilennz=tilennz,
        tile_nnz_counts=tile_counts,
        symbolic_ops=symbolic_ops,
        pair_a_nnz=pair_a_nnz,
    )
