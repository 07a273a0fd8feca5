"""Matched tile-pair enumeration for TileSpGEMM.

Tile ``C_ij`` is the sum of products ``A_ik × B_kj`` over every ``k`` for
which *both* tiles exist.  This module computes, for the whole
multiplication at once, the flat list of matched pairs together with the
candidate tile of ``C`` each pair contributes to.

Two equivalent strategies are provided:

* :func:`enumerate_pairs_expand` — the tile-pair join, the driver's only
  path (:func:`repro.core.tilespgemm.tile_spgemm` runs it as step 1 and
  keeps its pairs for steps 2 and 3): a tile-level row-by-row expansion
  (each tile ``A_ik`` is joined with every tile of ``B``'s tile row
  ``k``), then a sort groups pairs by their target tile of ``C``.  This
  produces exactly the pairs the paper's per-tile set intersection finds,
  in one NumPy pass.
* :func:`enumerate_pairs_intersect` — the faithful per-tile rendition of
  the paper's Algorithm 2: for every candidate ``C`` tile, intersect
  ``A``'s tile row with ``B``'s tile column using binary search (or merge).
  Quadratic in Python-loop terms, it is a reference kernel that builds
  its own pair list: the tests assert it returns the join's exact
  :class:`TilePairs` (``len_a``/``len_b`` included) on every corpus case,
  and ``benchmarks/bench_ablation_intersect.py`` prices and times it.

The GPU cost model consumes the per-tile intersection lengths
``len_a``/``len_b`` the join records.
:func:`live_entries` expands a subset of them into the list of their
``A`` nonzeros that meet a nonempty ``B`` row.  It serves only the pairs
that need per-entry work: step 2's entry-path pairs (sparse ``A`` tiles;
dense ones OR packed bit rows instead, see :mod:`repro.core.step2`) and
the pairs of step 3's scatter-path tiles.  When step 2's list covers
every pair and step 3 has no dense-path tiles, both steps share one list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.backend import resolve_backend
from repro.core.intersect import intersect
from repro.core.tile_matrix import TileMatrix
from repro.util.arrays import concat_ranges, segment_ids

__all__ = ["LiveEntries", "TilePairs", "enumerate_pairs_expand", "enumerate_pairs_intersect",
           "live_entries"]


@dataclass
class TilePairs:
    """The matched tile pairs of one SpGEMM, grouped by target C tile.

    Attributes
    ----------
    c_tilerow, c_tilecol:
        Per-candidate-tile coordinates of ``C`` (row-major sorted, unique).
    pair_ptr:
        ``(num_c_tiles + 1)`` offsets: candidate tile ``t`` owns pairs
        ``pair_a[pair_ptr[t]:pair_ptr[t+1]]``.
    pair_a, pair_b:
        For each matched pair, the tile index into ``A``'s / ``B``'s tile
        arrays.
    len_a, len_b:
        For each candidate tile, the lengths of the two intersected lists
        (``A``'s tile row, ``B``'s tile column) — the cost-model inputs.
    """

    c_tilerow: np.ndarray
    c_tilecol: np.ndarray
    pair_ptr: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    len_a: np.ndarray
    len_b: np.ndarray

    @property
    def num_c_tiles(self) -> int:
        return int(self.c_tilerow.size)

    @property
    def num_pairs(self) -> int:
        return int(self.pair_a.size)

    def pair_c_slot(self) -> np.ndarray:
        """For each pair, the index of its candidate C tile."""
        return segment_ids(np.diff(self.pair_ptr))


def enumerate_pairs_expand(a: TileMatrix, b: TileMatrix) -> TilePairs:
    """Vectorised tile-pair enumeration by row expansion + sort."""
    if a.num_tile_cols != b.num_tile_rows:
        raise ValueError(
            f"tile-grid mismatch: A has {a.num_tile_cols} tile cols, "
            f"B has {b.num_tile_rows} tile rows"
        )
    a_trow = a.tile_rowidx()
    a_tcol = a.tilecolidx
    b_row_len = np.diff(b.tileptr)

    # Join every A tile (i, k) with all tiles of B's tile row k.
    rep = b_row_len[a_tcol]
    pair_a = np.repeat(np.arange(a.num_tiles, dtype=np.int64), rep)
    pair_b = concat_ranges(b.tileptr[a_tcol], rep)

    c_i = a_trow[pair_a]
    c_j = b.tilecolidx[pair_b]
    ntc = max(b.num_tile_cols, 1)
    key = c_i * ntc + c_j
    order = np.argsort(key, kind="stable")
    key = key[order]
    pair_a = pair_a[order]
    pair_b = pair_b[order]

    if key.size:
        new = np.empty(key.size, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        c_keys = key[starts]
        pair_ptr = np.concatenate([starts, [key.size]]).astype(np.int64)
    else:
        c_keys = np.empty(0, dtype=np.int64)
        pair_ptr = np.zeros(1, dtype=np.int64)

    c_tilerow = c_keys // ntc
    c_tilecol = c_keys % ntc

    a_row_len = np.diff(a.tileptr)
    b_csc = b.tile_csc()
    b_col_len = np.diff(b_csc["colptr"])
    len_a = a_row_len[c_tilerow] if c_tilerow.size else np.empty(0, dtype=np.int64)
    len_b = b_col_len[c_tilecol] if c_tilecol.size else np.empty(0, dtype=np.int64)

    return TilePairs(c_tilerow, c_tilecol, pair_ptr, pair_a, pair_b, len_a, len_b)


def enumerate_pairs_intersect(
    a: TileMatrix,
    b: TileMatrix,
    c_tilerow: Optional[np.ndarray] = None,
    c_tilecol: Optional[np.ndarray] = None,
    method: str = "binary",
) -> TilePairs:
    """Per-tile set-intersection pair enumeration (paper Algorithm 2).

    Parameters
    ----------
    a, b:
        The input tile matrices.
    c_tilerow, c_tilecol:
        Candidate tiles of ``C`` (from step 1).  When omitted they are
        derived with :func:`enumerate_pairs_expand`, mimicking the paper's
        use of a separate symbolic SpGEMM for step 1.
    method:
        ``"binary"`` (paper default) or ``"merge"``.
    """
    if c_tilerow is None or c_tilecol is None:
        ref = enumerate_pairs_expand(a, b)
        c_tilerow, c_tilecol = ref.c_tilerow, ref.c_tilecol

    c_tilerow = np.asarray(c_tilerow, dtype=np.int64)
    c_tilecol = np.asarray(c_tilecol, dtype=np.int64)
    b_csc = b.tile_csc()

    pair_a_parts = []
    pair_b_parts = []
    counts = np.zeros(c_tilerow.size, dtype=np.int64)
    len_a = np.zeros(c_tilerow.size, dtype=np.int64)
    len_b = np.zeros(c_tilerow.size, dtype=np.int64)

    for t in range(c_tilerow.size):
        i = c_tilerow[t]
        j = c_tilecol[t]
        a_lo, a_hi = a.tileptr[i], a.tileptr[i + 1]
        b_lo, b_hi = b_csc["colptr"][j], b_csc["colptr"][j + 1]
        a_cols = a.tilecolidx[a_lo:a_hi]  # k's present in A's tile row i
        b_rows = b_csc["rowidx"][b_lo:b_hi]  # k's present in B's tile col j
        pos_a, pos_b = intersect(a_cols, b_rows, method=method)
        pair_a_parts.append(a_lo + pos_a)
        pair_b_parts.append(b_csc["tile_id"][b_lo + pos_b])
        counts[t] = pos_a.size
        len_a[t] = a_cols.size
        len_b[t] = b_rows.size

    pair_ptr = np.zeros(c_tilerow.size + 1, dtype=np.int64)
    np.cumsum(counts, out=pair_ptr[1:])
    pair_a = (
        np.concatenate(pair_a_parts) if pair_a_parts else np.empty(0, dtype=np.int64)
    )
    pair_b = (
        np.concatenate(pair_b_parts) if pair_b_parts else np.empty(0, dtype=np.int64)
    )
    return TilePairs(c_tilerow, c_tilecol, pair_ptr, pair_a, pair_b, len_a, len_b)


@dataclass
class LiveEntries:
    """The entries of :func:`live_entries`, grouped by pair in pair order."""

    a_idx: np.ndarray  # the A nonzero of every live entry
    pair_of: np.ndarray  # its pair
    row_len: np.ndarray  # its B row's length (uint8): the products it makes
    entry_ptr: np.ndarray  # pair p owns entries [entry_ptr[p], entry_ptr[p + 1])
    csum: np.ndarray  # cumulative products per pair (num_pairs + 1, leading 0)
    #: the pairs that were expanded (bool per pair), ``None`` for every pair;
    #: the others read as dead
    select: Optional[np.ndarray] = None


def live_entries(
    a: TileMatrix, b: TileMatrix, pairs: TilePairs, kernels=None, select: Optional[np.ndarray] = None
) -> LiveEntries:
    """Expand the pairs into the ``A``-tile nonzeros that meet a nonempty ``B`` row.

    A nonzero ``(r, c)`` of a pair's ``A`` tile ORs row ``c`` of the pair's
    ``B`` tile into row ``r`` of the ``C`` tile and makes one product per
    entry of that row; with an empty ``B`` row it does neither.  Dead pairs
    are dropped on tile-level masks first, then the dead nonzeros.
    ``select`` (bool per pair) expands only those pairs; the rest keep
    their numbers and read as dead.
    """
    kernels = resolve_backend(kernels)
    T = a.tile_size
    b_row_len = kernels.popcount(b.mask)
    a_cols = np.bitwise_or.reduce(a.mask, axis=1)
    b_rows = np.bitwise_or.reduce((b_row_len != 0) << np.arange(T, dtype=a_cols.dtype), axis=1)
    if select is None:
        live_pairs = np.flatnonzero(a_cols[pairs.pair_a] & b_rows[pairs.pair_b])
    else:
        cand = np.flatnonzero(select)
        live_pairs = cand[np.flatnonzero(a_cols[pairs.pair_a[cand]] & b_rows[pairs.pair_b[cand]])]
    pa = pairs.pair_a[live_pairs]
    pair_a_nnz = a.tile_nnz_counts()[pa]
    a_idx = concat_ranges(a.tilennz[pa], pair_a_nnz)
    b_row = np.repeat(pairs.pair_b[live_pairs] * T, pair_a_nnz)
    b_row += a.colidx[a_idx]
    row_len = b_row_len.reshape(-1)[b_row]
    live = np.flatnonzero(row_len)
    bounds = np.zeros(live_pairs.size + 1, dtype=np.int64)
    np.cumsum(pair_a_nnz, out=bounds[1:])
    ptr = np.searchsorted(live, bounds)  # live pair i owns [ptr[i], ptr[i + 1])
    row_len = row_len[live]
    entry_csum = np.zeros(live.size + 1, dtype=np.int64)
    np.cumsum(row_len, dtype=np.int64, out=entry_csum[1:])
    # Entries and products of every pair (zero for dropped ones), summed
    # exactly in int64.
    entry_ptr = np.zeros(pairs.num_pairs + 1, dtype=np.int64)
    entry_ptr[live_pairs + 1] = np.diff(ptr)
    csum = np.zeros(pairs.num_pairs + 1, dtype=np.int64)
    csum[live_pairs + 1] = np.diff(entry_csum[ptr])
    pair_of = np.repeat(live_pairs, entry_ptr[live_pairs + 1])
    np.cumsum(entry_ptr, out=entry_ptr)
    np.cumsum(csum, out=csum)
    return LiveEntries(a_idx[live], pair_of, row_len, entry_ptr, csum, select)
