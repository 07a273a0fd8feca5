"""Step 2 of TileSpGEMM: the symbolic phase (paper §3.3, Algorithm 2).

Given the candidate tiles of ``C`` and the matched ``(A_ik, B_kj)`` tile
pairs, this step determines each candidate tile's bit masks, row pointer
and nonzero count — everything needed to allocate ``C`` — without touching
values.  It also counts every pair's intermediate products, from which
step 3 picks each ``C`` tile's accumulation path.

The kernel is the paper's Figure 5: row ``r`` of a ``C`` tile is the OR of
the ``B``-tile rows ``c`` over every pair's ``A``-tile nonzeros ``(r, c)``.
The CPU runs it on one of two exact paths per pair, chosen by the nonzero
count of the pair's ``A`` tile:

* **entry** — for ``A`` tiles below ``PACKED_MIN_NNZ`` nonzeros: the
  pairs' live entries (:func:`repro.core.pairs.live_entries`, built by
  :func:`step2_entries`) each OR one ``B`` row into one ``C`` row through
  ``KernelSet.mask_or_into`` (the CUDA ``AtomicOr``).  An OR with an empty
  ``B`` row is a no-op, so only live entries are ORed.  A pair's products
  are the summed lengths of its entries' ``B`` rows.
* **packed** — for the denser ``A`` tiles: row ``r`` of the pair's product
  mask is the OR of ``B.mask[c]`` over the set bits ``c`` of
  ``A.mask[r]``, one 16x16 select-and-OR per pair, ``PACKED_GROUP_PAIRS``
  pairs at a time; ``np.bitwise_or.reduceat`` then folds each ``C`` tile's
  pairs.  A pair's products are the dot product of its ``A`` tile's column
  counts and its ``B`` tile's row lengths.  No per-entry list is built.

A packed pair costs ~0.4 us whatever its tile holds; an entry-path pair
costs ~0.07 us per live entry, expansion plus OR (one core of a 2-vCPU
VM).  The threshold was swept over the twelve batch matrices of the
end-to-end benchmark, timing steps 2 and 3: 16 and 32 tie on the
numeric-bound and planned-parallel matrices, and 64 leaves their
32-63-nonzero tiles on the slower entry path.  At 16, ``cop20k_A``'s
16-31-nonzero tiles take the packed path; its tiles are all scatter
tiles, so step 3 then expands every live pair again (step 3
264 -> 719 ms).  Hence 32.

OR is idempotent and commutative and product counts are integer sums, so
both paths give the same bytes whatever pairs take them.  ``symbolic_ops``
is the paper's mask-OR count, one per (matched pair, ``A``-tile nonzero),
read from the join's per-tile ``matched_a_nnz``: it counts the dead pairs
the driver's join dropped, which OR nothing.  The per-tile
row pointers then fall out of mask popcounts plus a prefix scan, as in
the paper.  The ambient tracer gets the sub-phases as spans:
``step2.expand`` (the entry path's list) and ``step2.pairs`` (the packed
path, attribute ``pairs``).

The masks' working state is bounded by ``num_c_tiles * tile_size`` mask
words plus one pair group — the Python analogue of the paper's claim
that step 2 runs entirely in on-chip scratchpad memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import resolve_backend
from repro.core.pairs import LiveEntries, TilePairs, live_entries
from repro.core.tile_matrix import TileMatrix, mask_dtype_for
from repro.obs.context import current_obs

__all__ = ["PACKED_MIN_NNZ", "SymbolicResult", "step2_entries", "step2_symbolic"]

#: ``A``-tile nonzeros from which a pair takes the packed-row path.
#: Measured crossover, see the module docstring.
PACKED_MIN_NNZ: int = 32

#: Pairs ORed together on the packed-row path: their select-and-OR
#: temporaries take ~0.5 MB, which stays in a core's L2.  On the
#: numeric-bound benchmark matrices 4096 was fastest or tied against
#: 1024 and 16384.
PACKED_GROUP_PAIRS: int = 4096


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
        The paper's mask-OR count (cost-model input): one per (matched
        pair, A-tile nonzero), dead pairs included.
    pair_products:
        Per-pair intermediate products (``uint16``: at most ``T**3``):
        step 3's numeric work, from which it picks each tile's path.
    """

    mask: np.ndarray
    rowptr: np.ndarray
    tilennz: np.ndarray
    tile_nnz_counts: np.ndarray
    symbolic_ops: int
    pair_products: np.ndarray

    @property
    def nnz(self) -> int:
        """Total nonzeros of ``C`` (sum over candidate tiles)."""
        return int(self.tilennz[-1])


def step2_entries(a: TileMatrix, b: TileMatrix, pairs: TilePairs, backend=None) -> LiveEntries:
    """The live entries of the pairs step 2 ORs entry by entry.

    Those are the pairs whose ``A`` tile holds fewer than
    ``PACKED_MIN_NNZ`` nonzeros; when that is every pair, the list is
    :func:`~repro.core.pairs.live_entries` of all of them, which step 3
    reuses.  Traced as the ``step2.expand`` span.
    """
    packed_a = a.tile_nnz_counts() >= PACKED_MIN_NNZ
    entry = ~packed_a[pairs.pair_a] if packed_a.any() else None
    with current_obs().tracer.span("step2.expand", cat="substep"):
        return live_entries(a, b, pairs, backend, entry)


def step2_symbolic(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    backend=None,
    live: LiveEntries | None = None,
    mask: np.ndarray | None = None,
) -> SymbolicResult:
    """Run the symbolic phase over all candidate tiles at once.

    ``backend`` selects the kernel set for the mask OR-accumulate and the
    popcounts (a name, a :class:`~repro.backend.KernelSet`, or ``None``
    for the ambient default — see :func:`repro.backend.resolve_backend`).
    ``live`` is the entry path's list (:func:`step2_entries`, built if
    ``None``); the pairs it did not expand take the packed-row path.
    ``mask`` (``(num_c_tiles, T)`` bit rows, masked SpGEMM) is ANDed into
    the candidate tiles' masks before the popcounts, so ``C`` is sized to
    the masked positions only.
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

    if live is None:
        live = step2_entries(a, b, pairs, kernels)
    # Entry path: AtomicOr(mask_C[slot, r], mask_B[b_tile, c]) for every live A nonzero.
    tile_entries = np.diff(live.entry_ptr[pairs.pair_ptr])
    dst = np.repeat(np.arange(num_c, dtype=np.int64) * T, tile_entries)
    dst += a.rowidx[live.a_idx]
    src = pairs.pair_b[live.pair_of]
    src *= T
    src += a.colidx[live.a_idx]
    kernels.mask_or_into(mask_c.reshape(-1), dst, b.mask.reshape(-1)[src])
    del dst, src
    # A pair makes at most T**3 <= 4096 products.
    pair_products = np.subtract(live.csum[1:], live.csum[:-1],
                                out=np.empty(pairs.num_pairs, np.uint16), casting="unsafe")
    packed = np.empty(0, dtype=np.int64) if live.select is None else np.flatnonzero(~live.select)
    with current_obs().tracer.span("step2.pairs", cat="substep", pairs=int(packed.size)):
        if packed.size:
            _or_packed_rows(a, b, pairs, packed, mask_c, pair_products, kernels)
    if mask is not None:
        mask_c &= mask

    counts_per_row = kernels.popcount(mask_c)
    # A row pointer is at most (T - 1) * T, so it fits the stored dtype.
    rowptr = np.zeros((num_c, T), dtype=np.uint8 if T * T <= 256 else np.uint16)
    np.cumsum(counts_per_row[:, :-1], axis=1, dtype=rowptr.dtype, out=rowptr[:, 1:])
    tile_counts = counts_per_row.sum(axis=1, dtype=np.int64)
    tilennz = np.zeros(num_c + 1, dtype=np.int64)
    np.cumsum(tile_counts, out=tilennz[1:])

    return SymbolicResult(
        mask=mask_c,
        rowptr=rowptr,
        tilennz=tilennz,
        tile_nnz_counts=tile_counts,
        symbolic_ops=int(pairs.matched_a_nnz.sum()),
        pair_products=pair_products,
    )


def _or_packed_rows(
    a: TileMatrix,
    b: TileMatrix,
    pairs: TilePairs,
    packed: np.ndarray,
    mask_c: np.ndarray,
    pair_products: np.ndarray,
    kernels,
) -> None:
    """OR the ``packed`` pairs' product masks into ``mask_c`` on packed bit rows.

    Per pair, row ``r`` ORs ``B.mask[c]`` over the set bits ``c`` of
    ``A.mask[r]``; a pair's products, ``sum_c colcount_A[c] * rowlen_B[c]``,
    go to ``pair_products``.
    """
    T = a.tile_size
    a_tiles, a_of = np.unique(pairs.pair_a[packed], return_inverse=True)
    bits = (a.mask[a_tiles][:, :, None] >> np.arange(T, dtype=a.mask.dtype)) & 1
    a_col_counts = bits.sum(axis=1, dtype=np.int64)
    b_row_len = kernels.popcount(b.mask)
    slot = np.searchsorted(pairs.pair_ptr, packed, side="right") - 1
    for g0 in range(0, packed.size, PACKED_GROUP_PAIRS):
        g = slice(g0, g0 + PACKED_GROUP_PAIRS)
        group = packed[g]
        pb = pairs.pair_b[group]
        a_rows = a.mask[pairs.pair_a[group]]
        b_rows = b.mask[pb]
        rows = np.zeros_like(a_rows)
        sel = np.empty_like(a_rows)
        for c in range(T):
            np.right_shift(a_rows, c, out=sel)
            sel &= 1
            sel *= b_rows[:, c, None]  # B row c where A's column c is set
            rows |= sel
        pair_products[group] = np.einsum(
            "ij,ij->i", a_col_counts[a_of[g]], b_row_len[pb], dtype=np.int64
        )
        s = slot[g]
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        mask_c[s[starts]] |= np.bitwise_or.reduceat(rows, starts, axis=0)
