"""Step 1 of TileSpGEMM: computing the tile layout of ``C`` (paper §3.3).

The high-level tile structures of ``A`` and ``B`` are themselves sparse
patterns ``A'`` and ``B'`` (one "nonzero" per non-empty tile).  A symbolic
SpGEMM ``C' = A'B'`` yields the candidate tiles of ``C``.  Tile-level
cancellation is deliberately not considered: a candidate tile may turn out
to hold zero nonzeros after step 2, and the final ``C`` is allowed to keep
(or drop) such tiles.

The paper delegates this step to the NSPARSE library because the tile-level
problem is small and NSPARSE is fast on small cases.  The TileSpGEMM driver
(:func:`repro.core.tilespgemm.tile_spgemm`) instead takes the layout from
the tile-pair join (:func:`repro.core.pairs.enumerate_live_pairs`) and
keeps its live pairs for step 2; it does not call this module.  This
module holds the NSPARSE-like hash kernel (``"hash"``) as a reference
kernel, with its ESC twin (``"expand"``) as cross-check: the tests assert
that on every corpus case the hash layout is the reference join's
(:func:`repro.core.pairs.enumerate_pairs_expand`) tiles and its
``tile_flops`` that join's pair count, and
``benchmarks/bench_ablation_intersect.py`` compares the two kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.util.arrays import concat_ranges

__all__ = ["TileLayout", "step1_tile_layout", "symbolic_spgemm_pattern"]


@dataclass
class TileLayout:
    """The candidate tile structure of ``C`` (output of step 1).

    Attributes
    ----------
    num_tile_rows, num_tile_cols:
        Dimensions of ``C``'s tile grid.
    tileptr:
        ``(num_tile_rows + 1)`` offsets of tiles per tile row.
    tilecolidx:
        Tile column of each candidate tile, sorted within a tile row.
    tile_flops:
        Tile-level multiply count of the symbolic product (the number of
        ``A'``/``B'`` nonzero pairs inspected) — a cost-model input.
    """

    num_tile_rows: int
    num_tile_cols: int
    tileptr: np.ndarray
    tilecolidx: np.ndarray
    tile_flops: int

    @property
    def num_tiles(self) -> int:
        return int(self.tilecolidx.size)

    def tile_rowidx(self) -> np.ndarray:
        """Tile row of each candidate tile (expanded from ``tileptr``)."""
        return np.repeat(
            np.arange(self.num_tile_rows, dtype=np.int64), np.diff(self.tileptr)
        )


def symbolic_spgemm_pattern(a: CSRMatrix, b: CSRMatrix, method: str = "hash"):
    """Symbolic SpGEMM on patterns: the structure of ``A @ B``.

    Parameters
    ----------
    a, b:
        Pattern matrices in CSR form (values ignored).
    method:
        ``"hash"`` — per-row hash table insertion, the strategy of the
        NSPARSE library the paper calls here; or ``"expand"`` — global
        expansion, sort and unique, the ESC strategy, fully vectorised.

    Returns
    -------
    (indptr, indices, flops):
        CSR structure of the product's pattern (indices sorted per row) and
        the number of pattern multiply operations performed.
    """
    if method == "expand":
        return _symbolic_expand(a, b)
    if method == "hash":
        return _symbolic_hash(a, b)
    raise ValueError(f"unknown symbolic method {method!r}")


def _symbolic_expand(a: CSRMatrix, b: CSRMatrix):
    b_row_len = np.diff(b.indptr)
    rep = b_row_len[a.indices]
    flops = int(rep.sum())
    # Expand every (i, k) against row k of B: intermediate (i, j) pairs.
    inter_i = np.repeat(a.row_indices_expanded(), rep)
    inter_j = b.indices[concat_ranges(b.indptr[a.indices], rep)]
    key = inter_i * b.shape[1] + inter_j
    uniq = np.unique(key)
    rows = uniq // b.shape[1]
    cols = uniq % b.shape[1]
    indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=a.shape[0]), out=indptr[1:])
    return indptr, cols.astype(np.int64), flops

def _symbolic_hash(a: CSRMatrix, b: CSRMatrix):
    """Row-by-row hash symbolic kernel (NSPARSE-style, Python loop).

    Each output row uses an open-addressing table sized to the next power
    of two above the row's upper-bound nonzero count, exactly like
    NSPARSE's per-bin shared-memory tables.  Python sets would be faster
    here, but the point of this kernel is to exercise the same collision
    behaviour the GPU library has; the loop cost is acceptable because
    step 1 operates on the small tile-level pattern.
    """
    nrows = a.shape[0]
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    rows_out = []
    flops = 0
    for i in range(nrows):
        cols_a = a.indices[a.indptr[i] : a.indptr[i + 1]]
        # Upper bound on the row's nonzeros drives the table size.
        ub = int(np.diff(b.indptr)[cols_a].sum()) if cols_a.size else 0
        flops += ub
        if ub == 0:
            rows_out.append(np.empty(0, dtype=np.int64))
            continue
        table_size = 1
        while table_size < 2 * ub:
            table_size <<= 1
        table = np.full(table_size, -1, dtype=np.int64)
        count = 0
        mask = table_size - 1
        for k in cols_a:
            row_b = b.indices[b.indptr[k] : b.indptr[k + 1]]
            for j in row_b:
                h = (int(j) * 2654435761) & mask
                while True:
                    cur = table[h]
                    if cur == j:
                        break
                    if cur == -1:
                        table[h] = j
                        count += 1
                        break
                    h = (h + 1) & mask
        found = np.sort(table[table >= 0])
        assert found.size == count
        rows_out.append(found)
    lengths = np.array([r.size for r in rows_out], dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = (
        np.concatenate(rows_out) if rows_out else np.empty(0, dtype=np.int64)
    )
    return indptr, indices, flops


def step1_tile_layout(a_pattern: CSRMatrix, b_pattern: CSRMatrix, method: str = "expand") -> TileLayout:
    """Run step 1: symbolic tile-level SpGEMM ``C' = A'B'``.

    Parameters
    ----------
    a_pattern, b_pattern:
        The high-level tile layouts of ``A`` and ``B``
        (:meth:`repro.core.tile_matrix.TileMatrix.tile_pattern_csr`).
    method:
        Symbolic kernel, ``"expand"`` (vectorised default) or ``"hash"``
        (NSPARSE-like, what the paper calls).
    """
    indptr, indices, flops = symbolic_spgemm_pattern(a_pattern, b_pattern, method=method)
    return TileLayout(
        num_tile_rows=a_pattern.shape[0],
        num_tile_cols=b_pattern.shape[1],
        tileptr=indptr,
        tilecolidx=indices,
        tile_flops=flops,
    )
