"""Matched tile-pair enumeration for TileSpGEMM.

Tile ``C_ij`` is the sum of products ``A_ik × B_kj`` over every ``k`` for
which *both* tiles exist.  This module computes, for the whole
multiplication at once, the flat list of matched pairs together with the
candidate tile of ``C`` each pair contributes to.  A matched pair is
*live* when its ``A`` tile's column mask meets a nonempty row of its
``B`` tile; a dead pair makes no entry of ``C`` and no product.

Three joins give the same candidate tiles and per-tile statistics:

* :func:`enumerate_live_pairs` — the driver's join
  (:func:`repro.core.tilespgemm.tile_spgemm` runs it as step 1 and keeps
  its pairs for steps 2 and 3).  It expands every ``A`` tile ``A_ik``
  against ``B``'s tile row ``k``, counts the candidate tiles and their
  matched pairs with a ``bincount`` over the tile grid, drops the dead
  pairs and stable-sorts only the live ones.  On sparse products most
  pairs are dead (91-92 % on the end-to-end benchmark's symbolic-bound
  matrices), so the sort is a fraction of the reference's.
* :func:`enumerate_pairs_expand` — the reference join: the same
  expansion (one shared helper), then a stable sort of every matched
  pair by target tile.  It holds the dead pairs too, the paper's full
  intersection; the warp interpreter, the tSparse baseline and the
  reference-kernel comparisons use it.
* :func:`enumerate_pairs_intersect` — the faithful per-tile rendition of
  the paper's Algorithm 2: for every candidate ``C`` tile, intersect
  ``A``'s tile row with ``B``'s tile column using binary search (or merge).
  Quadratic in Python-loop terms, it is a reference kernel that builds
  its own pair list: the tests assert it returns the reference join's
  exact :class:`TilePairs` on every corpus case, and
  ``benchmarks/bench_ablation_intersect.py`` prices and times it.

Every join records, per candidate tile, the paper's step-1 and step-2
statistics over *all* matched pairs: the intersection lengths
``len_a``/``len_b``, the matched-pair count ``matched`` and the mask-OR
count ``matched_a_nnz``; the GPU cost model reads them.
:func:`live_entries` expands a subset of the held pairs into the list of
their ``A`` nonzeros that meet a nonempty ``B`` row.  It serves only the
pairs that need per-entry work: step 2's entry-path pairs (sparse ``A``
tiles; dense ones OR packed bit rows instead, see
:mod:`repro.core.step2`) and the pairs of step 3's scatter-path tiles.
When step 2's list covers every pair and step 3 has no dense-path tiles,
both steps share one list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.backend import resolve_backend
from repro.core.intersect import intersect
from repro.core.tile_matrix import TileMatrix
from repro.util.arrays import concat_ranges, segment_ids

__all__ = ["LiveEntries", "TilePairs", "enumerate_live_pairs", "enumerate_pairs_expand",
           "enumerate_pairs_intersect", "live_entries"]


#: Matched pairs the driver's join expands at a time (whole tile rows of
#: ``A``, at least one), so a block's temporaries stay cache-resident.
#: On the symbolic-bound benchmark matrices (seed 0, one core of a 2-vCPU
#: VM) 2**15 to 2**17 tie; one block for all of cop20k_A's 8.7M pairs
#: made its join 2.2x slower.
_JOIN_BLOCK_PAIRS: int = 1 << 16

#: A block of the driver's join counts its candidate tiles with a
#: ``bincount`` over its rows of the tile grid when they have at most this
#: many cells per matched pair; a sparser block costs more to scan than
#: its pairs cost to sort, so it is sorted and grouped like the reference
#: join.  Sorting every block made the symbolic-bound joins 1.8-2x slower
#: (18 pairs per cell on cop20k_A); counting every block made pwtk's,
#: at 0.07 pairs per cell, 2.4x slower.
_COUNT_CELLS_PER_PAIR: int = 4


@dataclass
class TilePairs:
    """The tile pairs of one SpGEMM, grouped by target C tile.

    Attributes
    ----------
    c_tilerow, c_tilecol:
        Per-candidate-tile coordinates of ``C`` (row-major sorted, unique).
    pair_ptr:
        ``(num_c_tiles + 1)`` offsets: candidate tile ``t`` owns pairs
        ``pair_a[pair_ptr[t]:pair_ptr[t+1]]``.
    pair_a, pair_b:
        For each held pair, the tile index into ``A``'s / ``B``'s tile
        arrays.  :func:`enumerate_pairs_expand` holds every matched pair,
        :func:`enumerate_live_pairs` only the live ones.
    len_a, len_b:
        For each candidate tile, the lengths of the two intersected lists
        (``A``'s tile row, ``B``'s tile column) — the cost-model inputs.
    matched:
        For each candidate tile, its matched pairs, live or dead (the
        paper's intersection size): ``np.diff(pair_ptr)`` when every
        matched pair is held.
    matched_a_nnz:
        For each candidate tile, the ``A``-tile nonzeros summed over its
        matched pairs: the mask ORs the paper's step 2 performs for it.
    """

    c_tilerow: np.ndarray
    c_tilecol: np.ndarray
    pair_ptr: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    len_a: np.ndarray
    len_b: np.ndarray
    matched: np.ndarray
    matched_a_nnz: np.ndarray

    @property
    def num_c_tiles(self) -> int:
        return int(self.c_tilerow.size)

    @property
    def num_pairs(self) -> int:
        """The pairs held (``pair_a.size``), which may be fewer than matched."""
        return int(self.pair_a.size)

    def pair_c_slot(self) -> np.ndarray:
        """For each held pair, the index of its candidate C tile."""
        return segment_ids(np.diff(self.pair_ptr))

    def select_tiles(self, tiles: np.ndarray) -> "TilePairs":
        """The candidate tiles ``tiles`` (ascending indices), their pairs and statistics.

        When the dropped tiles hold no pairs, the pair arrays are shared,
        not copied.
        """
        held = np.diff(self.pair_ptr)[tiles]
        pair_ptr = np.zeros(tiles.size + 1, dtype=np.int64)
        np.cumsum(held, out=pair_ptr[1:])
        if pair_ptr[-1] == self.num_pairs:
            pair_a, pair_b = self.pair_a, self.pair_b
        else:
            kept = concat_ranges(self.pair_ptr[tiles], held)
            pair_a, pair_b = self.pair_a[kept], self.pair_b[kept]
        return TilePairs(self.c_tilerow[tiles], self.c_tilecol[tiles], pair_ptr, pair_a, pair_b,
                         self.len_a[tiles], self.len_b[tiles], self.matched[tiles],
                         self.matched_a_nnz[tiles])


def _expand(a: TileMatrix, b: TileMatrix, i0: int, i1: int):
    """The matched pairs of ``A``'s tile rows ``[i0, i1)``, in ``A``-tile order.

    Joins every ``A`` tile ``(i, k)`` with all tiles of ``B``'s tile row
    ``k``.  Returns the pairs of each ``A`` tile, each pair's ``B`` tile
    and its target ``C`` tile's key ``(i - i0) * ntc + j``.
    """
    ntc = max(b.num_tile_cols, 1)
    t0, t1 = a.tileptr[i0], a.tileptr[i1]
    k = a.tilecolidx[t0:t1]
    rep = b.tileptr[k + 1] - b.tileptr[k]
    pair_b = concat_ranges(b.tileptr[k], rep)
    row_key = np.repeat(np.arange(i1 - i0, dtype=np.int64) * ntc, np.diff(a.tileptr[i0:i1 + 1]))
    key = np.repeat(row_key, rep)
    key += b.tilecolidx[pair_b]
    return rep, pair_b, key


def _group(key: np.ndarray, weight: np.ndarray):
    """Stable-sort pairs by key and group them by target tile.

    Returns the sort order, the tiles' keys, their pair offsets into the
    sorted pairs and, per tile, the sum of the pairs' ``weight``.
    """
    order = _stable_argsort(key)
    key = key[order]
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    pair_ptr = np.append(starts, key.size).astype(np.int64)
    csum = np.zeros(key.size + 1, dtype=np.int64)
    np.cumsum(weight[order], out=csum[1:])
    return order, key[starts], pair_ptr, np.diff(csum[pair_ptr])


def _tile_pairs(a, b, c_keys, pair_ptr, pair_a, pair_b, matched, matched_a_nnz) -> TilePairs:
    """Assemble a :class:`TilePairs` from the candidate tiles' sorted keys."""
    ntc = max(b.num_tile_cols, 1)
    c_tilerow = c_keys // ntc
    c_tilecol = c_keys % ntc
    len_a = np.diff(a.tileptr)[c_tilerow]
    len_b = np.diff(b.tile_csc()["colptr"])[c_tilecol]
    return TilePairs(c_tilerow, c_tilecol, pair_ptr, pair_a, pair_b, len_a, len_b,
                     matched, matched_a_nnz)


def enumerate_pairs_expand(a: TileMatrix, b: TileMatrix) -> TilePairs:
    """Every matched pair, by row expansion + stable sort (the reference join)."""
    _check_grids(a, b)
    rep, pair_b, key = _expand(a, b, 0, a.num_tile_rows)
    pair_a = np.repeat(np.arange(a.num_tiles, dtype=np.int64), rep)
    order, c_keys, pair_ptr, a_nnz = _group(key, a.tile_nnz_counts()[pair_a])
    return _tile_pairs(a, b, c_keys, pair_ptr, pair_a[order], pair_b[order],
                       np.diff(pair_ptr), a_nnz)


def enumerate_live_pairs(a: TileMatrix, b: TileMatrix) -> TilePairs:
    """The driver's join: every candidate tile, and only its live pairs.

    A pair is live when its ``A`` tile's column mask meets the nonempty
    rows of its ``B`` tile.  The candidate tiles, ``len_a``/``len_b``,
    ``matched`` and ``matched_a_nnz`` are :func:`enumerate_pairs_expand`'s,
    and the held pairs are its pairs filtered by liveness, in its order.

    The pairs are expanded ``_JOIN_BLOCK_PAIRS`` at a time, over whole
    tile rows of ``A``; their keys ascend by tile row, so each block owns
    its candidate tiles.  A block counts its tiles, their matched pairs
    and ``A``-tile nonzeros with a ``bincount`` over its rows of the tile
    grid, then stable-sorts only its live pairs (a radix sort when the
    block spans at most 2**16 cells).  A block whose grid is sparser than
    ``_COUNT_CELLS_PER_PAIR`` is sorted and grouped like the reference,
    then filtered.
    """
    _check_grids(a, b)
    ntc = max(b.num_tile_cols, 1)
    a_nnz = a.tile_nnz_counts()
    a_nnz_f = a_nnz.astype(np.float64)
    a_cols = np.bitwise_or.reduce(a.mask, axis=1)
    b_rows = np.bitwise_or.reduce((b.mask != 0) << np.arange(b.tile_size, dtype=b.mask.dtype),
                                  axis=1)
    c_keys, matched, matched_a_nnz, pair_ptr, pair_a, pair_b = ([] for _ in range(6))
    held = 0
    for i0, i1 in _row_blocks(a, b):
        t0, t1 = a.tileptr[i0], a.tileptr[i1]
        rep, blk_b, key = _expand(a, b, i0, i1)
        live = np.repeat(a_cols[t0:t1], rep) & b_rows[blk_b] != 0
        cells = (i1 - i0) * ntc
        if cells <= _COUNT_CELLS_PER_PAIR * key.size:
            count = np.bincount(key, minlength=cells)
            tiles = np.flatnonzero(count)
            matched.append(count[tiles])
            a_sum = np.bincount(key, weights=np.repeat(a_nnz_f[t0:t1], rep), minlength=cells)
            matched_a_nnz.append(a_sum[tiles].astype(np.int64))  # exact: integers < 2**53
            pos = np.flatnonzero(live)
            key = key[pos]
            pos = pos[_stable_argsort(key)]
            live_count = np.bincount(key, minlength=cells)
            ptr = (np.cumsum(live_count) - live_count)[tiles]
        else:
            order, tiles, ptr, tile_a_nnz = _group(key, np.repeat(a_nnz[t0:t1], rep))
            matched.append(np.diff(ptr))
            matched_a_nnz.append(tile_a_nnz)
            keep = np.flatnonzero(live[order])
            ptr = np.searchsorted(keep, ptr[:-1])
            pos = order[keep]
        c_keys.append(tiles + i0 * ntc)
        pair_ptr.append(ptr + held)
        pair_a.append(np.repeat(np.arange(t0, t1, dtype=np.int64), rep)[pos])
        pair_b.append(blk_b[pos])
        held += pos.size
    pair_ptr.append([held])
    return _tile_pairs(a, b, *(_cat(x) for x in (c_keys, pair_ptr, pair_a, pair_b, matched,
                                                 matched_a_nnz)))


def _check_grids(a: TileMatrix, b: TileMatrix) -> None:
    if a.num_tile_cols != b.num_tile_rows:
        raise ValueError(
            f"tile-grid mismatch: A has {a.num_tile_cols} tile cols, "
            f"B has {b.num_tile_rows} tile rows"
        )


def _row_blocks(a: TileMatrix, b: TileMatrix):
    """``(i0, i1)`` ranges of ``A``'s tile rows with about ``_JOIN_BLOCK_PAIRS`` pairs each."""
    pair_end = np.zeros(a.num_tiles + 1, dtype=np.int64)
    np.cumsum(np.diff(b.tileptr)[a.tilecolidx], out=pair_end[1:])
    row_end = pair_end[a.tileptr]  # pairs of the tile rows before each row
    total = int(row_end[-1])
    cuts = np.searchsorted(row_end, np.arange(_JOIN_BLOCK_PAIRS, total, _JOIN_BLOCK_PAIRS))
    bounds = sorted({0, a.num_tile_rows, *cuts.tolist()})
    return zip(bounds[:-1], bounds[1:])


def _stable_argsort(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")``; keys below 2**16 take numpy's radix sort."""
    if key.size and key.max() < 1 << 16:
        key = key.astype(np.uint16)
    return np.argsort(key, kind="stable")


def _cat(parts) -> np.ndarray:
    return np.concatenate(parts).astype(np.int64, copy=False) if parts else np.empty(0, np.int64)


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
    tile_a_nnz = np.zeros(c_tilerow.size, dtype=np.int64)
    a_counts = a.tile_nnz_counts()

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
        tile_a_nnz[t] = a_counts[a_lo + pos_a].sum()
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
    return TilePairs(c_tilerow, c_tilecol, pair_ptr, pair_a, pair_b, len_a, len_b, counts,
                     tile_a_nnz)


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
    entry of that row; with an empty ``B`` row it does neither, and is
    dropped.  A dead pair keeps no entry, so the list is the same whether
    or not ``pairs`` holds dead pairs.  ``select`` (bool per pair) expands
    only those pairs; the rest keep their numbers and read as dead.
    """
    kernels = resolve_backend(kernels)
    T = a.tile_size
    b_row_len = kernels.popcount(b.mask)
    if select is None:
        chosen = np.arange(pairs.num_pairs, dtype=np.int64)
    else:
        chosen = np.flatnonzero(select)
    pa = pairs.pair_a[chosen]
    pair_a_nnz = a.tile_nnz_counts()[pa]
    a_idx = concat_ranges(a.tilennz[pa], pair_a_nnz)
    b_row = np.repeat(pairs.pair_b[chosen] * T, pair_a_nnz)
    b_row += a.colidx[a_idx]
    row_len = b_row_len.reshape(-1)[b_row]
    live = np.flatnonzero(row_len)
    bounds = np.zeros(chosen.size + 1, dtype=np.int64)
    np.cumsum(pair_a_nnz, out=bounds[1:])
    ptr = np.searchsorted(live, bounds)  # live pair i owns [ptr[i], ptr[i + 1])
    row_len = row_len[live]
    entry_csum = np.zeros(live.size + 1, dtype=np.int64)
    np.cumsum(row_len, dtype=np.int64, out=entry_csum[1:])
    # Entries and products of every pair (zero for unchosen ones), summed
    # exactly in int64.
    entry_ptr = np.zeros(pairs.num_pairs + 1, dtype=np.int64)
    entry_ptr[chosen + 1] = np.diff(ptr)
    csum = np.zeros(pairs.num_pairs + 1, dtype=np.int64)
    csum[chosen + 1] = np.diff(entry_csum[ptr])
    pair_of = np.repeat(chosen, entry_ptr[chosen + 1])
    np.cumsum(entry_ptr, out=entry_ptr)
    np.cumsum(csum, out=csum)
    return LiveEntries(a_idx[live], pair_of, row_len, entry_ptr, csum, select)
