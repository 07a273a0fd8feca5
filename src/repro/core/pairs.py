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
  pairs alone).  It finds the live pairs by whichever of two passes
  expands less.  The *filter* expands every ``A`` tile ``A_ik`` against
  ``B``'s tile row ``k``, counts the candidate tiles and their matched
  pairs with a ``bincount`` over the tile grid, without a sort, tests
  every matched pair and stable-sorts only the live ones.  The *column*
  pass expands no pair: it counts the candidate tiles as the tile-level
  product ``A'B'`` itself, a dense ``matmul`` that is exact on these
  small integer counts (the move of Zachariadis et al., arXiv
  2009.14600, onto dense GEMM), where that is cheap.  It then indexes
  ``B`` by global row and expands each ``A`` nonzero over the ``B``
  tiles whose matching row is nonempty: every such meeting is a live
  entry, so it yields the live pairs and their live entries at once, and
  step 2 need not expand them again.  That is the compressed-``B``
  symbolic phase of KKMEM (Deveci et al., arXiv 1801.03065) at tile
  granularity.  On sparse products most pairs are dead (91-92 % on the
  end-to-end benchmark's symbolic-bound matrices) and the column pass
  expands ~10x less than the filter; on denser ones each pair holds many
  entries and the filter expands 38-210x less.
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


#: Matched pairs the filter pass (and the count's expansion, on a block
#: the dense product would cost too much) expands at a time (whole tile
#: rows of ``A``, at least one), so a block's temporaries stay
#: cache-resident.  On the symbolic-bound benchmark matrices (seed 0, one
#: core of a 2-vCPU VM) 2**15 to 2**17 tie; one block for all of
#: cop20k_A's 8.7M pairs made its join 2.2x slower.
_JOIN_BLOCK_PAIRS: int = 1 << 16

#: A block of the join's expansion counts its candidate tiles with a
#: ``bincount`` over its rows of the tile grid when they have at most this
#: many cells per matched pair; a sparser block costs more to scan than
#: its pairs cost to sort, so it is sorted and grouped like the reference
#: join.  Sorting every block made the symbolic-bound joins 1.8-2x slower
#: (18 pairs per cell on cop20k_A); counting every block made pwtk's,
#: at 0.07 pairs per cell, 2.4x slower.
_COUNT_CELLS_PER_PAIR: int = 4

#: The column pass's count multiplies ``A``'s tile rows in blocks of at
#: most this many cells of the tile grid (rows x tile columns of ``B``)
#: while such blocks hold on average ``_JOIN_BLOCK_PAIRS / 16`` matched
#: pairs or more (:func:`_cap_rows`); on a wider, sparser grid it cuts
#: blocks of ``_JOIN_BLOCK_PAIRS`` matched pairs instead, so it never
#: takes a block per tile row.
_PRODUCT_BLOCK_CELLS: int = 1 << 20

#: A block of the column pass's count takes the dense product when it
#: costs at most this many multiply-adds per matched pair, else it
#: expands its pairs.  On one OpenBLAS thread of a 2-vCPU VM the two tied
#: near 300 multiply-adds per pair (a permuted random matrix at 400 per
#: pair counted 1.4x slower by product); the product was 3-11x faster on
#: the symbolic-bound benchmark matrices (21-62 per pair) and 3-39x
#: slower on banded ones (2,000-170,000 per pair).
_PRODUCT_MACS_PER_PAIR: int = 64

#: float32 holds every integer below this exactly.
_FLOAT32_EXACT: int = 1 << 24

#: Live entries the column pass lists at a time (whole tile rows of ``A``),
#: over at most ``_RADIX_KEYS`` cells of the tile grid, so that its keys
#: take numpy's radix sort.  With that cap, 2**14 to 2**20 tied on the
#: symbolic-bound benchmark matrices (grids of 407-688 tile columns);
#: without it, blocks of 2**18 entries made cop20k_A's column pass 2x
#: slower.  The join's 64k-pair blocks gave it 133 blocks of ~6k entries.
#: The cap holds only while capped blocks average ``1/16`` of this many
#: entries (:func:`_cap_rows`); on a grid 62,500 tile columns wide it
#: would make a block of each tile row.
_COLUMN_BLOCK_ENTRIES: int = 1 << 16

#: Sort keys below this take numpy's radix sort (:func:`_stable_argsort`).
_RADIX_KEYS: int = 1 << 16


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


def _tile_pairs(a, b, c_tilerow, c_tilecol, pair_ptr, pair_a, pair_b, matched,
                matched_a_nnz) -> TilePairs:
    """Assemble a :class:`TilePairs` from the candidate tiles, row-major ascending."""
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
    c_tilerow, c_tilecol = np.divmod(c_keys, max(b.num_tile_cols, 1))
    return _tile_pairs(a, b, c_tilerow, c_tilecol, pair_ptr, pair_a[order], pair_b[order],
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

    The pairs are :func:`enumerate_live_pairs`'s.  They come from one of
    two passes, whichever expands less (:func:`_use_column_join`):

    * **filter** — expand every matched pair, ``_JOIN_BLOCK_PAIRS`` at a
      time over whole tile rows of ``A`` (their keys ascend by tile row,
      so each block owns its candidate tiles).  A block counts its tiles,
      their matched pairs and ``A``-tile nonzeros with a ``bincount`` over
      its rows of the tile grid (or, on a grid sparser than
      ``_COUNT_CELLS_PER_PAIR``, sorts and groups them like the
      reference), then tests every pair for liveness and stable-sorts the
      live ones (a radix sort when the block spans at most 2**16 cells).
      Returns no entries: step 2 expands the ones it needs.
    * **column** — count the candidate tiles without expanding a pair
      (:func:`_count_tiles`: the tile-level product ``A'B'`` as one dense
      ``matmul`` per row block where that is cheap; traced as the
      ``step1.count`` span), then list the live entries: every ``A``
      nonzero ``(r, c)`` of tile ``(i, k)`` meets exactly the ``B`` tiles
      that :func:`_b_row_list` lists for its global row ``k * T + c``;
      each meeting is a live entry.  Per block of about
      ``_COLUMN_BLOCK_ENTRIES`` entries, they are generated in
      ``A``-nonzero order and stable-sorted by target tile; each run of
      equal (target tile, ``B`` tile) is one live pair, its entries in
      ``A`` storage order.  Returns the entries too, equal to
      :func:`live_entries` of every pair.  Traced as the
      ``step1.entries`` span.

    The filter costs O(matched pairs), the column pass O(live entries)
    plus a dense product over the tile grid: on hypersparse products
    most matched pairs are dead and the column pass is ~10x smaller, on
    denser ones the pairs hold many entries each and the filter is
    ~40-200x smaller.
    """
    return _join(a, b, backend)[:2]


def _join(a: TileMatrix, b: TileMatrix, backend=None):
    """:func:`live_join`, and how it counted the candidate tiles.

    The third value is ``"product"``, ``"expand"`` or ``"mixed"`` (some
    blocks each way); the filter always expands.  :func:`tile_spgemm
    <repro.core.tilespgemm.tile_spgemm>` records it as the ``step1``
    span's ``count``.
    """
    _check_grids(a, b)
    row_end = _matched_row_end(a, b)
    num_matched = int(row_end[-1])
    row_ptr = _b_row_ptr(b)
    if not _use_column_join(num_matched, _count_entries(a, row_ptr, num_matched)):
        return _filter_join(a, b, row_end), None, "expand"
    tracer = current_obs().tracer
    with tracer.span("step1.count", cat="substep"):
        c_tilerow, c_tilecol, matched, matched_a_nnz, count = _count_tiles(a, b, row_end)
    with tracer.span("step1.entries", cat="substep") as span:
        pair_ptr, pair_a, pair_b, entries = _column_entries(
            a, b, c_tilerow, c_tilecol, row_ptr, _b_row_list(b), backend)
        if span is not None:
            span.args["entries"] = int(entries.a_idx.size)
    pairs = _tile_pairs(a, b, c_tilerow, c_tilecol, pair_ptr, pair_a, pair_b, matched,
                        matched_a_nnz)
    return pairs, entries, count


def _count_block(a: TileMatrix, b: TileMatrix, i0: int, i1: int):
    """Expand the matched pairs of ``A``'s tile rows ``[i0, i1)`` and count their tiles.

    Returns the expansion ``(rep, pair_b, key)`` (:func:`_expand`), the
    pairs' stable order by key when the block sorted them (``None`` when
    it counted them with a ``bincount``), and the block's candidate
    tiles: their keys, matched pairs and ``A``-tile nonzeros.
    """
    ntc = max(b.num_tile_cols, 1)
    t0, t1 = a.tileptr[i0], a.tileptr[i1]
    rep, pair_b, key = _expand(a, b, i0, i1)
    weight = np.repeat(np.diff(a.tilennz[t0:t1 + 1]), rep)
    cells = (i1 - i0) * ntc
    if cells <= _COUNT_CELLS_PER_PAIR * key.size:
        count = np.bincount(key, minlength=cells)
        tiles = np.flatnonzero(count)
        a_sum = np.bincount(key, weights=weight, minlength=cells)
        # exact: integers < 2**53
        return (rep, pair_b, key), None, (tiles, count[tiles], a_sum[tiles].astype(np.int64))
    order, tiles, ptr, tile_a_nnz = _group(key, weight)
    return (rep, pair_b, key), order, (tiles, np.diff(ptr), tile_a_nnz)


def _filter_join(a: TileMatrix, b: TileMatrix, row_end: np.ndarray) -> TilePairs:
    """The filter pass of :func:`live_join`: count, test and sort every matched pair."""
    T = a.tile_size
    ntc = max(b.num_tile_cols, 1)
    a_cols = np.bitwise_or.reduce(a.mask, axis=1)
    b_rows = np.bitwise_or.reduce((b.mask != 0) << np.arange(T, dtype=b.mask.dtype), axis=1)
    c_keys, matched, matched_a_nnz, pair_ptr, pair_a, pair_b = ([] for _ in range(6))
    held = 0
    for i0, i1 in _cut(row_end, 0, a.num_tile_rows, _JOIN_BLOCK_PAIRS):
        t0, t1 = a.tileptr[i0], a.tileptr[i1]
        (rep, blk_b, key), order, (tiles, blk_matched, blk_a_nnz) = _count_block(a, b, i0, i1)
        c_keys.append(tiles + i0 * ntc)
        matched.append(blk_matched)
        matched_a_nnz.append(blk_a_nnz)
        live = np.repeat(a_cols[t0:t1], rep) & b_rows[blk_b] != 0
        if order is None:
            pos = np.flatnonzero(live)
            pos = pos[_stable_argsort(key[pos])]
        else:
            pos = order[live[order]]
        pair_ptr.append(_held_ptr(key[pos], tiles, (i1 - i0) * ntc, order is None) + held)
        pair_a.append(np.repeat(np.arange(t0, t1, dtype=np.int64), rep)[pos])
        pair_b.append(blk_b[pos])
        held += pos.size
    pair_ptr.append([held])
    c_tilerow, c_tilecol = np.divmod(_cat(c_keys), ntc)
    return _tile_pairs(a, b, c_tilerow, c_tilecol, _cat(pair_ptr), _cat(pair_a), _cat(pair_b),
                       _cat(matched), _cat(matched_a_nnz))


def _count_tiles(a: TileMatrix, b: TileMatrix, row_end: np.ndarray):
    """The candidate tiles of ``C``, their matched pairs and ``A``-tile nonzeros.

    These are the tile-level product ``C' = A'B'`` (the paper's step 1):
    ``matched`` is ``A'₁B'₁`` and ``matched_a_nnz`` is ``A'ₙB'₁``, where
    ``A'₁``/``B'₁`` hold 1 per stored tile and ``A'ₙ`` each tile's
    nonzero count.  ``A``'s tile rows go in blocks of at most
    ``_PRODUCT_BLOCK_CELLS`` cells of the tile grid (on a wide, sparse
    grid, of ``_JOIN_BLOCK_PAIRS`` matched pairs: :func:`_cap_rows`);
    each block is multiplied densely (:func:`_product_block`) or, where
    its dense product would cost too much (:func:`_use_tile_product`),
    its matched pairs are expanded and counted like the filter's
    (:func:`_count_block`).  Returns the tiles' rows and columns
    (row-major ascending), ``matched``, ``matched_a_nnz`` and how they
    were counted: ``"product"``, ``"expand"`` or ``"mixed"``.
    """
    ntc = max(b.num_tile_cols, 1)
    max_rows = _cap_rows(row_end, ntc, _PRODUCT_BLOCK_CELLS, _JOIN_BLOCK_PAIRS // 16)
    parts = []
    took = set()
    for i0, i1 in _cut(row_end, 0, a.num_tile_rows, 0 if max_rows else _JOIN_BLOCK_PAIRS,
                       max_rows):
        num_matched = int(row_end[i1] - row_end[i0])
        if num_matched == 0:
            continue
        part = _product_block(a, b, i0, i1, num_matched)
        if part is not None:
            took.add("product")
            parts.append(part)
            continue
        took.add("expand")
        for s0, s1 in _cut(row_end, i0, i1, _JOIN_BLOCK_PAIRS):
            _, _, (tiles, blk_matched, blk_a_nnz) = _count_block(a, b, s0, s1)
            tilerow, tilecol = np.divmod(tiles, ntc)
            parts.append((tilerow + s0, tilecol, blk_matched, blk_a_nnz))
    fields = [_cat([part[f] for part in parts]) for f in range(4)]
    return (*fields, "mixed" if len(took) > 1 else next(iter(took), "expand"))


def _product_block(a: TileMatrix, b: TileMatrix, i0: int, i1: int, num_matched: int):
    """The counts of :func:`_count_tiles` for ``A``'s tile rows ``[i0, i1)`` by one ``matmul``.

    The block is compressed to its own tile columns of ``A`` (``K``) and
    the tile columns of ``B`` they reach (``J``), and ``[A'₁; A'ₙ] @ B'₁``
    is taken over them.  Every summand is a small nonnegative integer and
    every sum is below ``|K| · T²``, so any summation order is exact in
    float32 below 2**24 (float64 otherwise): the bytes do not depend on
    the BLAS build or its thread count.  Returns ``None`` when the rule
    (:func:`_use_tile_product`) prefers expanding the block's
    ``num_matched`` pairs.
    """
    T = a.tile_size
    t0, t1 = a.tileptr[i0], a.tileptr[i1]
    rows = i1 - i0
    k_all, k_at = np.unique(a.tilecolidx[t0:t1], return_inverse=True)
    k_len = np.diff(b.tileptr)[k_all]
    # |J| is at least the longest B tile row met, and the rule only tightens as |J| grows.
    if not _use_tile_product(rows, k_all.size, int(k_len.max(initial=0)), num_matched):
        return None
    b_tiles = concat_ranges(b.tileptr[k_all], k_len)
    j_all, j_at = np.unique(b.tilecolidx[b_tiles], return_inverse=True)
    if not _use_tile_product(rows, k_all.size, j_all.size, num_matched):
        return None
    dtype = np.float32 if k_all.size * T * T < _FLOAT32_EXACT else np.float64
    tile_row = np.repeat(np.arange(rows, dtype=np.int64), np.diff(a.tileptr[i0:i1 + 1]))
    lhs = np.zeros((2 * rows, k_all.size), dtype=dtype)
    lhs[tile_row, k_at] = 1
    lhs[tile_row + rows, k_at] = np.diff(a.tilennz[t0:t1 + 1])
    rhs = np.zeros((k_all.size, j_all.size), dtype=dtype)
    rhs[np.repeat(np.arange(k_all.size, dtype=np.int64), k_len), j_at] = 1
    out = lhs @ rhs
    tiles = out[:rows] != 0
    row, col = np.nonzero(tiles)
    matched, matched_a_nnz = out[:rows][tiles], out[rows:][tiles]
    return row + i0, j_all[col], matched.astype(np.int64), matched_a_nnz.astype(np.int64)


def _use_tile_product(rows: int, k: int, j: int, num_matched: int) -> bool:
    """Whether a block of :func:`_count_tiles` takes the dense product.

    The block has ``rows`` tile rows of ``A`` over ``k`` tile columns,
    reaching ``j`` tile columns of ``B``.  Its ``rows · k · j``
    multiply-adds must be at most ``_PRODUCT_MACS_PER_PAIR`` per matched
    pair, and each dense operand at most ``_PRODUCT_BLOCK_CELLS`` cells.
    """
    return (max(rows, j) * k <= _PRODUCT_BLOCK_CELLS
            and rows * k * j <= _PRODUCT_MACS_PER_PAIR * num_matched)


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


def _column_entries(a, b, c_tilerow, c_tilecol, row_ptr, row_list, backend):
    """The column pass of :func:`live_join`: the live pairs and their entries.

    ``c_tilerow``/``c_tilecol`` are the candidate tiles, row-major
    ascending; ``row_ptr``/``row_list`` are ``B``'s row index
    (:func:`_b_row_ptr`, :func:`_b_row_list`).  Returns ``pair_ptr``,
    ``pair_a``, ``pair_b`` and the :class:`LiveEntries` of every pair.
    Every array is allocated once, at its final size or (the pair arrays,
    as no pair is without an entry) at the number of entries, and each
    block writes its slice.
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
    num_entries = int(first[-1])
    a_idx = np.empty(num_entries, dtype=np.int64)
    pair_of = np.empty(num_entries, dtype=np.int64)
    lens = np.empty(num_entries, dtype=row_len.dtype)
    pair_a = np.empty(num_entries, dtype=np.int64)
    pair_b = np.empty(num_entries, dtype=np.int64)
    entry_ptr = np.empty(num_entries + 1, dtype=np.int64)
    pair_ptr = np.empty(c_tilerow.size + 1, dtype=np.int64)
    c_rowptr = np.searchsorted(c_tilerow, np.arange(a.num_tile_rows + 1))
    held = 0
    ends = first[a.tilennz[a.tileptr]]
    max_rows = _cap_rows(ends, ntc, _RADIX_KEYS, _COLUMN_BLOCK_ENTRIES // 16)
    for i0, i1 in _cut(ends, 0, a.num_tile_rows, _COLUMN_BLOCK_ENTRIES, max_rows):
        n0, n1 = a.tilennz[a.tileptr[i0]], a.tilennz[a.tileptr[i1]]
        e0, e1 = first[n0], first[n1]
        src = np.repeat(np.arange(n0, n1, dtype=np.int64), meet[n0:n1])
        at = shift[src]
        at += np.arange(e0, e1, dtype=np.int64)
        key = nz_key[src]
        key -= i0 * ntc
        key += row_col[at]
        order = _stable_argsort(key)
        key, at = key[order], at[order]
        # The indices are in range; mode="clip" spares np.take buffering ``out``.
        np.take(src, order, out=a_idx[e0:e1], mode="clip")
        np.take(row_len, at, out=lens[e0:e1], mode="clip")
        tile_b = row_tile[at]
        new = np.empty(key.size, dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        new[1:] |= tile_b[1:] != tile_b[:-1]
        np.cumsum(new, out=pair_of[e0:e1])  # a pair is a run of equal (C tile, B tile)
        pair_of[e0:e1] += held - 1
        starts = np.flatnonzero(new)
        h1 = held + starts.size
        lo, hi = c_rowptr[i0], c_rowptr[i1]
        tiles = (c_tilerow[lo:hi] - i0) * ntc + c_tilecol[lo:hi]
        cells = (i1 - i0) * ntc
        counted = cells <= _COUNT_CELLS_PER_PAIR * starts.size
        pair_ptr[lo:hi] = _held_ptr(key[starts], tiles, cells, counted) + held
        np.take(nz_tile, a_idx[e0:e1][starts], out=pair_a[held:h1], mode="clip")
        np.take(tile_b, starts, out=pair_b[held:h1], mode="clip")
        np.add(starts, e0, out=entry_ptr[held:h1])
        held = h1
    pair_ptr[-1] = held
    entry_ptr[held] = num_entries
    pair_a, pair_b, entry_ptr = pair_a[:held], pair_b[:held], entry_ptr[:held + 1]
    if 2 * held < num_entries:  # don't keep entry-sized buffers alive for the pairs
        pair_a, pair_b, entry_ptr = pair_a.copy(), pair_b.copy(), entry_ptr.copy()
    entry_csum = np.zeros(num_entries + 1, dtype=np.int64)
    np.cumsum(lens, dtype=np.int64, out=entry_csum[1:])
    entries = LiveEntries(a_idx, pair_of, lens, entry_ptr, entry_csum[entry_ptr])
    return pair_ptr, pair_a, pair_b, entries


def _check_grids(a: TileMatrix, b: TileMatrix) -> None:
    if a.num_tile_cols != b.num_tile_rows:
        raise ValueError(
            f"tile-grid mismatch: A has {a.num_tile_cols} tile cols, "
            f"B has {b.num_tile_rows} tile rows"
        )


def _matched_row_end(a: TileMatrix, b: TileMatrix) -> np.ndarray:
    """The matched pairs of ``A``'s tile rows before each row (``num_tile_rows + 1``)."""
    pair_end = np.zeros(a.num_tiles + 1, dtype=np.int64)
    np.cumsum(np.diff(b.tileptr)[a.tilecolidx], out=pair_end[1:])
    return pair_end[a.tileptr]


def _cut(ends: np.ndarray, i0: int, i1: int, size: int, max_rows: int = 0):
    """``(r0, r1)`` ranges covering rows ``[i0, i1)`` with about ``size`` items
    each, if ``size`` (whole rows, at least one), and at most ``max_rows``
    rows, if ``max_rows``; ``ends[i]`` counts the items before row ``i``."""
    cuts = []
    if size:
        cuts = np.searchsorted(ends, np.arange(ends[i0] + size, ends[i1], size)).tolist()
    bounds = sorted({i0, i1, *cuts, *range(i0, i1, max_rows or i1 - i0 + 1)})
    return list(zip(bounds[:-1], bounds[1:]))


def _cap_rows(ends: np.ndarray, num_cols: int, cells: int, floor: int) -> int:
    """The most rows of a grid ``num_cols`` wide that fit in ``cells`` cells,
    or 0 (no cap) when blocks of that many rows would hold on average fewer
    than ``floor`` items (``ends[i]`` counts the items before row ``i``).

    On a wide, sparse grid a cap of a few rows would make about one block per
    row; with the floor, capped blocks number at most ``ends[-1] / floor``.
    Capped unconditionally, both of :func:`live_join`'s column-path cuts
    took a hypersparse 1M x 1M operand (62,500 tile columns) 3x longer
    than expanding its matched pairs.
    """
    rows = cells // num_cols
    return rows if rows and rows * int(ends[-1]) >= floor * (ends.size - 1) else 0


def _stable_argsort(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")``; keys below 2**16 take numpy's radix sort."""
    if key.size and key.max() < _RADIX_KEYS:
        key = key.astype(np.uint16)
    return np.argsort(key, kind="stable")


def _cat(parts) -> np.ndarray:
    if len(parts) == 1:
        return np.asarray(parts[0], dtype=np.int64)
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
