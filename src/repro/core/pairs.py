"""Matched tile-pair enumeration for TileSpGEMM.

Tile ``C_ij`` is the sum of products ``A_ik × B_kj`` over every ``k`` for
which *both* tiles exist.  This module computes, for the whole
multiplication at once, the flat list of matched pairs together with the
candidate tile of ``C`` each pair contributes to.  A matched pair is
*live* when its ``A`` tile's column mask meets a nonempty row of its
``B`` tile; a dead pair makes no entry of ``C`` and no product.

Three joins give the same candidate tiles and per-tile statistics:

* :func:`live_join` — the driver's join
  (:func:`repro.core.tilespgemm.tile_spgemm` runs it as step 1 and keeps
  its pairs for steps 2 and 3; :func:`enumerate_live_pairs` returns its
  pairs alone).  It expands every ``A`` tile ``A_ik`` against ``B``'s
  tile row ``k`` and counts the candidate tiles and their matched pairs
  with a ``bincount`` over the tile grid, without a sort.  It then finds
  the live pairs by whichever of two passes expands less.  The *filter*
  tests every matched pair and stable-sorts only the live ones.  The
  *column* pass indexes ``B`` by global row and expands each ``A``
  nonzero over the ``B`` tiles whose matching row is nonempty: every
  such meeting is a live entry, so it yields the live pairs and their
  live entries at once, and step 2 need not expand them again.  That is
  the compressed-``B`` symbolic phase of KKMEM (Deveci et al., arXiv
  1801.03065) at tile granularity.  On sparse products most pairs are
  dead (91-92 % on the end-to-end benchmark's symbolic-bound matrices)
  and the column pass expands ~10x less than the filter; on denser ones
  each pair holds many entries and the filter expands 38-210x less.
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
their ``A`` nonzeros that meet a nonempty ``B`` row.  On the filter path
it serves only the pairs that need per-entry work: step 2's entry-path
pairs (sparse ``A`` tiles; dense ones OR packed bit rows instead, see
:mod:`repro.core.step2`) and the pairs of step 3's scatter-path tiles.
The column pass's list covers every pair; steps 2 and 3 take it as
step 2's would be, and step 3 expands its scatter tiles again only when
some tiles take the dense path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.backend import resolve_backend
from repro.core.intersect import intersect
from repro.core.tile_matrix import TileMatrix
from repro.obs.context import current_obs
from repro.util.arrays import concat_ranges, segment_ids

__all__ = ["LiveEntries", "TilePairs", "enumerate_live_pairs", "enumerate_pairs_expand",
           "enumerate_pairs_intersect", "live_entries", "live_join"]


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
    """Every candidate tile, and only its live pairs: :func:`live_join`'s pairs.

    A pair is live when its ``A`` tile's column mask meets the nonempty
    rows of its ``B`` tile.  The candidate tiles, ``len_a``/``len_b``,
    ``matched`` and ``matched_a_nnz`` are :func:`enumerate_pairs_expand`'s,
    and the held pairs are its pairs filtered by liveness, in its order.
    """
    return live_join(a, b)[0]


def live_join(
    a: TileMatrix, b: TileMatrix, backend=None
) -> Tuple[TilePairs, Optional[LiveEntries]]:
    """The driver's join: the candidate tiles, their live pairs and maybe their live entries.

    The pairs are :func:`enumerate_live_pairs`'s.  The candidate tiles
    and their statistics come from every matched pair, expanded
    ``_JOIN_BLOCK_PAIRS`` at a time over whole tile rows of ``A``; their
    keys ascend by tile row, so each block owns its candidate tiles.  A
    block counts its tiles, their matched pairs and ``A``-tile nonzeros
    with a ``bincount`` over its rows of the tile grid; a block whose grid
    is sparser than ``_COUNT_CELLS_PER_PAIR`` sorts and groups its pairs
    like the reference instead.

    The live pairs come from one of two passes, whichever expands less
    (:func:`_use_column_join`):

    * **filter** — test every matched pair for liveness and stable-sort
      the live ones (a radix sort when the block spans at most 2**16
      cells).  Returns no entries: step 2 expands the ones it needs.
    * **column** — every ``A`` nonzero ``(r, c)`` of tile ``(i, k)``
      meets exactly the ``B`` tiles that :func:`_b_row_list` lists for
      its global row ``k * T + c``; each meeting is a live entry.  Per
      block, the entries are generated in ``A``-nonzero order and
      stable-sorted by target tile; each run of equal (target tile,
      ``B`` tile) is one live pair, its entries in ``A`` storage order.
      Returns the entries too, equal to :func:`live_entries` of every
      pair.  Traced as the ``step1.entries`` span.

    The filter costs O(matched pairs), the column pass O(live entries):
    on hypersparse products most matched pairs are dead and the column
    pass is ~10x smaller, on denser ones the pairs hold many entries each
    and the filter is ~40-200x smaller.
    """
    _check_grids(a, b)
    T = a.tile_size
    ntc = max(b.num_tile_cols, 1)
    blocks, num_matched = _row_blocks(a, b)
    a_nnz = a.tile_nnz_counts()
    row_ptr = _b_row_ptr(b)
    column = _use_column_join(num_matched, _count_entries(a, row_ptr, num_matched))

    a_nnz_f = a_nnz.astype(np.float64)
    if not column:
        a_cols = np.bitwise_or.reduce(a.mask, axis=1)
        b_rows = np.bitwise_or.reduce((b.mask != 0) << np.arange(T, dtype=b.mask.dtype), axis=1)
    c_keys, matched, matched_a_nnz, pair_ptr, pair_a, pair_b = ([] for _ in range(6))
    held = 0
    for i0, i1 in blocks:
        t0, t1 = a.tileptr[i0], a.tileptr[i1]
        rep, blk_b, key = _expand(a, b, i0, i1)
        cells = (i1 - i0) * ntc
        counted = cells <= _COUNT_CELLS_PER_PAIR * key.size
        if counted:
            count = np.bincount(key, minlength=cells)
            tiles = np.flatnonzero(count)
            matched.append(count[tiles])
            a_sum = np.bincount(key, weights=np.repeat(a_nnz_f[t0:t1], rep), minlength=cells)
            matched_a_nnz.append(a_sum[tiles].astype(np.int64))  # exact: integers < 2**53
        else:
            order, tiles, ptr, tile_a_nnz = _group(key, np.repeat(a_nnz[t0:t1], rep))
            matched.append(np.diff(ptr))
            matched_a_nnz.append(tile_a_nnz)
        c_keys.append(tiles + i0 * ntc)
        if column:
            continue
        live = np.repeat(a_cols[t0:t1], rep) & b_rows[blk_b] != 0
        if counted:
            pos = np.flatnonzero(live)
            pos = pos[_stable_argsort(key[pos])]
        else:
            pos = order[live[order]]
        pair_ptr.append(_held_ptr(key[pos], tiles, cells, counted) + held)
        pair_a.append(np.repeat(np.arange(t0, t1, dtype=np.int64), rep)[pos])
        pair_b.append(blk_b[pos])
        held += pos.size
    c_keys = _cat(c_keys)
    entries = None
    if column:
        with current_obs().tracer.span("step1.entries", cat="substep") as span:
            pair_ptr, pair_a, pair_b, entries = _column_entries(
                a, b, blocks, c_keys, row_ptr, _b_row_list(b), backend)
            if span is not None:
                span.args["entries"] = int(entries.a_idx.size)
    else:
        pair_ptr.append([held])
        pair_ptr, pair_a, pair_b = _cat(pair_ptr), _cat(pair_a), _cat(pair_b)
    pairs = _tile_pairs(a, b, c_keys, pair_ptr, pair_a, pair_b, _cat(matched),
                        _cat(matched_a_nnz))
    return pairs, entries


def _held_ptr(held_keys: np.ndarray, tiles: np.ndarray, cells: int, counted: bool) -> np.ndarray:
    """Each candidate tile's first held pair in its block.

    ``held_keys`` are the block's held pairs' keys, ascending; ``tiles``
    its candidate tiles' keys.  A block that counted its tiles counts
    these too, else it searches.
    """
    if counted:
        count = np.bincount(held_keys, minlength=cells)
        return (np.cumsum(count) - count)[tiles]
    return np.searchsorted(held_keys, tiles)


def _use_column_join(num_matched: int, num_entries: int) -> bool:
    """Whether :func:`live_join` takes the column pass: the entries it
    makes are fewer than the matched pairs the filter tests."""
    return num_entries < num_matched


def _count_entries(a: TileMatrix, row_ptr: np.ndarray, stop: int) -> int:
    """The column pass's entries: per ``A`` nonzero, the ``B`` tiles listed for its global row.

    Summed over runs of ``A`` tiles that double in length from 64,
    stopping once the count reaches ``stop``: where each nonzero meets
    several tiles, as on every product that takes the filter in the
    end-to-end benchmark, the first run decides the rule.
    """
    T = a.tile_size
    a_nnz = a.tile_nnz_counts()
    row_count = np.diff(row_ptr)
    count = t0 = 0
    run = 64
    while t0 < a.num_tiles and count < stop:
        t1 = min(t0 + run, a.num_tiles)
        rows = np.repeat(a.tilecolidx[t0:t1] * T, a_nnz[t0:t1])
        rows += a.colidx[a.tilennz[t0]:a.tilennz[t1]]
        count += int(row_count[rows].sum())
        t0, run = t1, 2 * run
    return count


def _b_row_ptr(b: TileMatrix) -> np.ndarray:
    """Offsets of ``B``'s row index (``b.num_tile_rows * T + 1``).

    Global row ``g = k * T + c`` of ``B`` lists the tiles of ``B``'s
    tile row ``k`` whose row ``c`` is nonempty (:func:`_b_row_list`).
    """
    T = b.tile_size
    count = np.zeros((b.num_tile_rows, T), dtype=np.int64)
    rows = np.flatnonzero(np.diff(b.tileptr))  # tile rows holding tiles
    if rows.size:
        count[rows] = np.add.reduceat(b.mask != 0, b.tileptr[rows], axis=0, dtype=np.int64)
    row_ptr = np.zeros(count.size + 1, dtype=np.int64)
    np.cumsum(count, out=row_ptr[1:])
    return row_ptr


def _b_row_list(b: TileMatrix) -> np.ndarray:
    """``B``'s row index: for each global row ``g = k * T + c`` in turn, the
    tiles of tile row ``k`` whose row ``c`` is nonempty, in tile order, as
    flat indices ``tile * T + c`` into ``b.mask``."""
    T = b.tile_size
    listed = np.flatnonzero(b.mask != 0)  # by tile, then row; a bool array counts fastest
    row = b.tile_rowidx()[listed // T] * T
    row += listed % T
    return listed[_stable_argsort(row)]


def _column_entries(a, b, blocks, c_keys, row_ptr, row_list, backend):
    """The column pass of :func:`live_join`: the live pairs and their entries.

    ``blocks`` are the join's row blocks, ``c_keys`` the candidate tiles'
    keys ``i * ntc + j``, ascending; ``row_ptr``/``row_list`` are ``B``'s
    row index (:func:`_b_row_ptr`, :func:`_b_row_list`).  Returns ``pair_ptr``,
    ``pair_a``, ``pair_b`` and the :class:`LiveEntries` of every pair.
    """
    T = a.tile_size
    ntc = max(b.num_tile_cols, 1)
    # Per listed (tile, row): the tile, its column of C and the row's length.
    row_tile = row_list // T
    row_col = b.tilecolidx[row_tile]
    row_len = resolve_backend(backend).popcount(b.mask.reshape(-1)[row_list])
    # Per A nonzero: its tile, its C tile row's key, its global B row and
    # the listed tiles it meets.  Its entry e lists row_ptr[rows] + (e - first).
    nz_tile = a.tile_of_nonzero()
    nz_key = a.tile_rowidx()[nz_tile] * ntc
    rows = a.tilecolidx[nz_tile] * T
    rows += a.colidx
    meet = np.diff(row_ptr)[rows]
    first = np.zeros(a.nnz + 1, dtype=np.int64)
    np.cumsum(meet, out=first[1:])
    shift = row_ptr[rows] - first[:-1]
    pair_ptr, pair_a, pair_b, a_idx, lens, entry_ptr = ([] for _ in range(6))
    held = 0
    for i0, i1 in blocks:
        n0, n1 = a.tilennz[a.tileptr[i0]], a.tilennz[a.tileptr[i1]]
        e0, e1 = first[n0], first[n1]
        src = np.repeat(np.arange(n0, n1, dtype=np.int64), meet[n0:n1])
        at = shift[src]
        at += np.arange(e0, e1, dtype=np.int64)
        key = nz_key[src]
        key -= i0 * ntc
        key += row_col[at]
        order = _stable_argsort(key)
        key, at, src = key[order], at[order], src[order]
        tile_b = row_tile[at]
        new = np.empty(key.size, dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        new[1:] |= tile_b[1:] != tile_b[:-1]
        starts = np.flatnonzero(new)  # a pair is a run of equal (C tile, B tile)
        lo, hi = np.searchsorted(c_keys, (i0 * ntc, i1 * ntc))
        cells = (i1 - i0) * ntc
        counted = cells <= _COUNT_CELLS_PER_PAIR * starts.size
        pair_ptr.append(_held_ptr(key[starts], c_keys[lo:hi] - i0 * ntc, cells, counted) + held)
        pair_a.append(nz_tile[src[starts]])
        pair_b.append(tile_b[starts])
        a_idx.append(src)
        lens.append(row_len[at])
        entry_ptr.append(starts + e0)
        held += starts.size
    num_entries = int(first[-1])
    pair_ptr.append([held])
    entry_ptr.append([num_entries])
    entry_ptr = _cat(entry_ptr)
    lens = np.concatenate(lens) if lens else row_len[:0]
    entry_csum = np.zeros(num_entries + 1, dtype=np.int64)
    np.cumsum(lens, dtype=np.int64, out=entry_csum[1:])
    entries = LiveEntries(_cat(a_idx), segment_ids(np.diff(entry_ptr)), lens, entry_ptr,
                          entry_csum[entry_ptr])
    return _cat(pair_ptr), _cat(pair_a), _cat(pair_b), entries


def _check_grids(a: TileMatrix, b: TileMatrix) -> None:
    if a.num_tile_cols != b.num_tile_rows:
        raise ValueError(
            f"tile-grid mismatch: A has {a.num_tile_cols} tile cols, "
            f"B has {b.num_tile_rows} tile rows"
        )


def _row_blocks(a: TileMatrix, b: TileMatrix):
    """``(i0, i1)`` ranges of ``A``'s tile rows with about ``_JOIN_BLOCK_PAIRS`` pairs each,
    and the number of matched pairs."""
    pair_end = np.zeros(a.num_tiles + 1, dtype=np.int64)
    np.cumsum(np.diff(b.tileptr)[a.tilecolidx], out=pair_end[1:])
    row_end = pair_end[a.tileptr]  # pairs of the tile rows before each row
    total = int(row_end[-1])
    cuts = np.searchsorted(row_end, np.arange(_JOIN_BLOCK_PAIRS, total, _JOIN_BLOCK_PAIRS))
    bounds = sorted({0, a.num_tile_rows, *cuts.tolist()})
    return list(zip(bounds[:-1], bounds[1:])), total


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
