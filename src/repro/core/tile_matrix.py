"""The paper's two-level sparse tile data structure (Section 3.2).

A :class:`TileMatrix` stores a sparse matrix as a collection of non-empty
fixed-size sparse tiles (16-by-16 in the paper).  Two levels of structure
are kept:

**High level** — the tile layout of the matrix, itself a CSR-like pattern
over tiles:

* ``tileptr``   (``num_tile_rows + 1``): offsets of the tiles of each tile
  row;
* ``tilecolidx`` (``num_tiles``): tile column index of each tile, sorted
  within a tile row;
* ``tilennz``   (``num_tiles + 1``): offsets of each tile's nonzeros in the
  low-level arrays (so ``tilennz[t+1] - tilennz[t]`` is tile ``t``'s
  nonzero count).

**Low level** — the nonzeros of each tile in CSR style with local indices:

* ``rowptr`` (``num_tiles × T`` uint8): per-tile row pointer.  Following
  the paper only ``T`` offsets are stored (not ``T+1``) so every value fits
  0..255; the missing last offset is recovered from ``tilennz``.
* ``rowidx`` / ``colidx`` (``nnz`` uint8): local row/column index of every
  nonzero (4 bits each for ``T = 16``; the paper packs the pair in one
  unsigned char — see :meth:`TileMatrix.packed_local_indices`).
* ``val`` (``nnz`` float64): the numeric values, in tile order, row-major
  within a tile.
* ``mask`` (``num_tiles × T`` uint16): per-tile-row bit masks; bit ``c`` of
  ``mask[t, r]`` is set iff tile ``t`` holds a nonzero at local ``(r, c)``.

The tile size is parameterised (4/8/16/32 supported) so the tile-size
ablation bench can demonstrate why the paper fixes ``T = 16``: it is the
unique size that exactly saturates the uint8 local-index pair and the
uint16 row mask.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.util.arrays import concat_ranges

__all__ = ["TileMatrix", "TILE", "mask_dtype_for"]

#: The paper's tile edge length.
TILE: int = 16

_SUPPORTED_TILE_SIZES = (4, 8, 16, 32)


def mask_dtype_for(tile_size: int) -> np.dtype:
    """Smallest unsigned dtype whose width covers one tile row's mask."""
    if tile_size <= 8:
        return np.dtype(np.uint8)
    if tile_size <= 16:
        return np.dtype(np.uint16)
    if tile_size <= 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


def _rowptr_dtype_for(tile_size: int) -> np.dtype:
    """Dtype of the per-tile row pointer (uint8 up to 256 nnz per tile)."""
    return np.dtype(np.uint8) if tile_size * tile_size <= 256 else np.dtype(np.uint16)


class TileMatrix:
    """A sparse matrix stored as non-empty fixed-size sparse tiles.

    Instances are normally built with :meth:`from_csr` or :meth:`from_coo`;
    the raw-array constructor is for internal use by the SpGEMM steps,
    which assemble ``C`` directly in tiled form.
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        tile_size: int,
        tileptr: np.ndarray,
        tilecolidx: np.ndarray,
        tilennz: np.ndarray,
        rowptr: np.ndarray,
        rowidx: np.ndarray,
        colidx: np.ndarray,
        val: np.ndarray,
        mask: np.ndarray,
        check: bool = True,
    ) -> None:
        if tile_size not in _SUPPORTED_TILE_SIZES:
            raise ValueError(
                f"tile_size must be one of {_SUPPORTED_TILE_SIZES}, got {tile_size}"
            )
        self.shape = (int(shape[0]), int(shape[1]))
        self.tile_size = int(tile_size)
        self.tileptr = np.ascontiguousarray(tileptr, dtype=np.int64)
        self.tilecolidx = np.ascontiguousarray(tilecolidx, dtype=np.int64)
        self.tilennz = np.ascontiguousarray(tilennz, dtype=np.int64)
        self.rowptr = np.ascontiguousarray(rowptr)
        self.rowidx = np.ascontiguousarray(rowidx, dtype=np.uint8)
        self.colidx = np.ascontiguousarray(colidx, dtype=np.uint8)
        self.val = np.ascontiguousarray(val, dtype=np.float64)
        self.mask = np.ascontiguousarray(mask)
        self._tile_csc_cache: Optional[Dict[str, np.ndarray]] = None
        if check:
            self.validate()

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def num_tile_rows(self) -> int:
        """Number of tile rows, ``ceil(nrows / tile_size)``."""
        return int(self.tileptr.size - 1)

    @property
    def num_tile_cols(self) -> int:
        """Number of tile columns, ``ceil(ncols / tile_size)``."""
        return -(-self.shape[1] // self.tile_size) if self.shape[1] else 0

    @property
    def num_tiles(self) -> int:
        """Number of stored (non-empty or allocated) tiles."""
        return int(self.tilecolidx.size)

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.val.size)

    def tile_rowidx(self) -> np.ndarray:
        """Tile row index of each stored tile (expanded from ``tileptr``)."""
        return np.repeat(
            np.arange(self.num_tile_rows, dtype=np.int64), np.diff(self.tileptr)
        )

    def tile_nnz_counts(self) -> np.ndarray:
        """Nonzero count of each stored tile."""
        return np.diff(self.tilennz)

    def tile_of_nonzero(self) -> np.ndarray:
        """For each nonzero, the index of the tile that owns it."""
        return np.repeat(np.arange(self.num_tiles, dtype=np.int64), self.tile_nnz_counts())

    def dense_tiles(self, tiles: Optional[np.ndarray] = None, dtype=np.float64) -> np.ndarray:
        """The stored tiles ``tiles`` (all if ``None``) as a dense
        ``(len(tiles), T, T)`` array; absent entries are ``+0.0``."""
        T = self.tile_size
        if tiles is None:
            tiles = np.arange(self.num_tiles, dtype=np.int64)
        counts = self.tilennz[tiles + 1] - self.tilennz[tiles]
        idx = concat_ranges(self.tilennz[tiles], counts)
        flat = np.repeat(np.arange(tiles.size, dtype=np.int64) * (T * T), counts)
        flat += self.rowidx[idx].astype(np.int64) * T
        flat += self.colidx[idx]
        dense = np.zeros(tiles.size * T * T, dtype=dtype)
        dense[flat] = self.val[idx]
        return dense.reshape(tiles.size, T, T)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, tile_size: int = TILE) -> "TileMatrix":
        """Convert COO triplets to the tiled format.

        This is the conversion the paper times in Figure 12 (there from
        CSR; the kernel is identical after expanding CSR's row pointer).
        Duplicates are summed first; explicit zeros are kept.
        """
        canon = coo.sum_duplicates()
        return cls._from_canonical_coo(canon, tile_size)

    @classmethod
    def from_csr(cls, csr: CSRMatrix, tile_size: int = TILE) -> "TileMatrix":
        """Convert a CSR matrix to the tiled format."""
        return cls._from_canonical_coo(csr.to_coo(), tile_size)

    @classmethod
    def _from_canonical_coo(cls, coo: COOMatrix, tile_size: int) -> "TileMatrix":
        T = int(tile_size)
        if T not in _SUPPORTED_TILE_SIZES:
            raise ValueError(f"tile_size must be one of {_SUPPORTED_TILE_SIZES}")
        nrows, ncols = coo.shape
        num_tile_rows = -(-nrows // T) if nrows else 0
        num_tile_cols = -(-ncols // T) if ncols else 0

        trow = coo.row // T
        tcol = coo.col // T
        lrow = (coo.row - trow * T).astype(np.uint8)
        lcol = (coo.col - tcol * T).astype(np.uint8)

        # Tile-major, then row-major-within-tile ordering: one stable sort
        # of the composite key (tile, local row, local col) is the
        # permutation a four-key lexsort gives, at ~2.5x its speed.
        key = trow * max(num_tile_cols, 1) + tcol
        order = np.argsort((key * T + lrow) * T + lcol, kind="stable")
        key, trow, tcol = key[order], trow[order], tcol[order]
        lrow, lcol = lrow[order], lcol[order]
        val = coo.val[order]

        nnz = val.size
        if nnz:
            new_tile = np.empty(nnz, dtype=bool)
            new_tile[0] = True
            np.not_equal(key[1:], key[:-1], out=new_tile[1:])
            tile_slot = np.cumsum(new_tile) - 1  # per-nonzero tile index
            starts = np.flatnonzero(new_tile)
            num_tiles = starts.size
            tile_trow = trow[starts]
            tilecolidx = tcol[starts]
            tilennz = np.zeros(num_tiles + 1, dtype=np.int64)
            tilennz[1:-1] = starts[1:]
            tilennz[-1] = nnz
        else:
            tile_slot = np.empty(0, dtype=np.int64)
            num_tiles = 0
            tile_trow = np.empty(0, dtype=np.int64)
            tilecolidx = np.empty(0, dtype=np.int64)
            tilennz = np.zeros(1, dtype=np.int64)

        tileptr = np.zeros(num_tile_rows + 1, dtype=np.int64)
        if num_tiles:
            np.cumsum(np.bincount(tile_trow, minlength=num_tile_rows), out=tileptr[1:])

        mask_dtype = mask_dtype_for(T)
        mask = np.zeros((num_tiles, T), dtype=mask_dtype)
        if nnz:
            flat = mask.reshape(-1)
            bit = (np.asarray(1, dtype=mask_dtype) << lcol.astype(mask_dtype))
            np.bitwise_or.at(flat, tile_slot * T + lrow, bit)

        rowptr = cls._rowptr_from_mask(mask, T)

        return cls(
            coo.shape,
            T,
            tileptr,
            tilecolidx,
            tilennz,
            rowptr,
            lrow,
            lcol,
            val,
            mask,
            check=False,
        )

    @staticmethod
    def _rowptr_from_mask(mask: np.ndarray, tile_size: int) -> np.ndarray:
        """Derive per-tile row pointers from the row masks by popcount."""
        counts = np.bitwise_count(mask).astype(np.int64)
        rowptr = np.zeros_like(counts)
        if counts.size:
            np.cumsum(counts[:, :-1], axis=1, out=rowptr[:, 1:])
        return rowptr.astype(_rowptr_dtype_for(tile_size))

    @classmethod
    def empty(cls, shape: Tuple[int, int], tile_size: int = TILE) -> "TileMatrix":
        """An all-zero matrix of the given shape."""
        return cls.from_coo(COOMatrix.empty(shape), tile_size)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant; raises ``ValueError`` on breakage.

        Covered invariants (the property-based tests drive these hard):

        * pointer arrays are monotone and consistent with array sizes;
        * tile column indices are in range and strictly increasing within a
          tile row;
        * local indices are within the tile and row-major sorted per tile;
        * masks agree exactly with the stored local indices;
        * row pointers agree with mask popcounts;
        * no tile exceeds ``tile_size**2`` nonzeros.
        """
        T = self.tile_size
        if self.tileptr[0] != 0 or self.tileptr[-1] != self.num_tiles:
            raise ValueError("tileptr must span [0, num_tiles]")
        if np.any(np.diff(self.tileptr) < 0):
            raise ValueError("tileptr must be non-decreasing")
        if self.tilennz.shape != (self.num_tiles + 1,):
            raise ValueError("tilennz must have num_tiles + 1 entries")
        if self.tilennz[0] != 0 or self.tilennz[-1] != self.nnz:
            raise ValueError("tilennz must span [0, nnz]")
        counts = self.tile_nnz_counts()
        if np.any(counts < 0):
            raise ValueError("tilennz must be non-decreasing")
        if np.any(counts > T * T):
            raise ValueError(f"a tile holds more than {T * T} nonzeros")
        if self.num_tiles:
            if self.tilecolidx.min() < 0 or self.tilecolidx.max() >= max(self.num_tile_cols, 1):
                raise ValueError("tile column index out of range")
            # Strictly increasing tile columns within each tile row.
            same_row = np.repeat(False, self.num_tiles)
            trow = self.tile_rowidx()
            same_row[1:] = trow[1:] == trow[:-1]
            bad = same_row[1:] & (self.tilecolidx[1:] <= self.tilecolidx[:-1])
            if np.any(bad):
                raise ValueError("tile columns not strictly increasing within a tile row")
        if self.mask.shape != (self.num_tiles, T):
            raise ValueError("mask must be (num_tiles, tile_size)")
        if self.rowptr.shape != (self.num_tiles, T):
            raise ValueError("rowptr must be (num_tiles, tile_size)")
        if self.nnz:
            if self.rowidx.max() >= T or self.colidx.max() >= T:
                raise ValueError("local index out of tile range")
        # Masks must match local indices exactly.
        mask_dtype = mask_dtype_for(T)
        rebuilt = np.zeros_like(self.mask)
        if self.nnz:
            flat = rebuilt.reshape(-1)
            bit = np.asarray(1, dtype=mask_dtype) << self.colidx.astype(mask_dtype)
            np.bitwise_or.at(flat, self.tile_of_nonzero() * T + self.rowidx, bit)
        if not np.array_equal(rebuilt, self.mask):
            raise ValueError("mask disagrees with stored local indices")
        # Row pointers must match popcounts (and nnz per tile).
        pc = np.bitwise_count(self.mask).astype(np.int64)
        if self.num_tiles and not np.array_equal(pc.sum(axis=1), counts):
            raise ValueError("mask popcounts disagree with tilennz")
        expected_rowptr = self._rowptr_from_mask(self.mask, T)
        if not np.array_equal(expected_rowptr.astype(np.int64), self.rowptr.astype(np.int64)):
            raise ValueError("rowptr disagrees with mask popcounts")
        # Row-major ordering inside each tile.
        if self.nnz > 1:
            tile_of = self.tile_of_nonzero()
            same_tile = tile_of[1:] == tile_of[:-1]
            key = self.rowidx.astype(np.int64) * T + self.colidx
            if np.any(same_tile & (key[1:] <= key[:-1])):
                raise ValueError("nonzeros not strictly row-major within a tile")

    # ------------------------------------------------------------------
    # High-level structure views
    # ------------------------------------------------------------------
    def tile_pattern_csr(self) -> CSRMatrix:
        """The high-level tile layout ``A'`` as a CSR 0/1 matrix.

        Step 1 of TileSpGEMM multiplies these patterns symbolically to find
        the candidate tiles of ``C``.
        """
        return CSRMatrix(
            (self.num_tile_rows, max(self.num_tile_cols, 1)),
            self.tileptr,
            self.tilecolidx,
            np.ones(self.num_tiles, dtype=np.float64),
            check=False,
        )

    def tile_csc(self) -> Dict[str, np.ndarray]:
        """Column-major view of the tile layout (cached).

        Returns a dict with:

        * ``colptr``  (``num_tile_cols + 1``): offsets per tile column;
        * ``rowidx``  (``num_tiles``): tile row indices, sorted per column;
        * ``tile_id`` (``num_tiles``): for each column-major position, the
          corresponding index into this matrix's tile arrays.

        Step 2's set intersection walks tile columns of ``B`` through this
        view (the CUDA code keeps an analogous ``tileColPtr_B`` /
        ``tileRowidx_B`` pair).
        """
        if self._tile_csc_cache is None:
            ntc = max(self.num_tile_cols, 1)
            counts = np.bincount(self.tilecolidx, minlength=ntc) if self.num_tiles else np.zeros(ntc, dtype=np.int64)
            colptr = np.zeros(ntc + 1, dtype=np.int64)
            np.cumsum(counts, out=colptr[1:])
            order = np.argsort(self.tilecolidx, kind="stable")
            self._tile_csc_cache = {
                "colptr": colptr,
                "rowidx": self.tile_rowidx()[order],
                "tile_id": order.astype(np.int64),
            }
        return self._tile_csc_cache

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        """Convert back to COO triplets (keeps explicit zeros)."""
        T = self.tile_size
        tile_of = self.tile_of_nonzero()
        trow = self.tile_rowidx()
        row = trow[tile_of] * T + self.rowidx
        col = self.tilecolidx[tile_of] * T + self.colidx
        return COOMatrix(self.shape, row, col, self.val)

    def to_csr(self) -> CSRMatrix:
        """Convert back to CSR."""
        return self.to_coo().to_csr()

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array."""
        return self.to_coo().to_dense()

    def packed_local_indices(self) -> np.ndarray:
        """The paper's packed uint8 local index: high nibble row, low nibble col.

        Only defined for ``tile_size <= 16``.
        """
        if self.tile_size > 16:
            raise ValueError("packed uint8 indices require tile_size <= 16")
        return ((self.rowidx.astype(np.uint16) << 4) | self.colidx).astype(np.uint8)

    # ------------------------------------------------------------------
    # Space accounting (Figure 11)
    # ------------------------------------------------------------------
    def memory_bytes(self, pointer_bytes: int = 4, value_bytes: int = 8) -> int:
        """Space cost in bytes under the paper's accounting.

        High-level arrays use 32-bit words; each nonzero pays one *packed*
        local-index byte (4+4 bits for ``T = 16``) plus its value; each tile
        pays ``T`` row-pointer bytes and ``T`` mask words.
        """
        T = self.tile_size
        high = pointer_bytes * (self.tileptr.size + self.tilecolidx.size + self.tilennz.size)
        packed_index_bytes = 1 if T <= 16 else 2
        per_nnz = self.nnz * (packed_index_bytes + value_bytes)
        rowptr_bytes = self.num_tiles * T * _rowptr_dtype_for(T).itemsize
        mask_bytes = self.num_tiles * T * mask_dtype_for(T).itemsize
        return int(high + per_nnz + rowptr_bytes + mask_bytes)

    # ------------------------------------------------------------------
    def drop_empty_tiles(self) -> "TileMatrix":
        """Return a copy without zero-nonzero tiles.

        Step 1 of the SpGEMM may allocate tiles of ``C`` that turn out
        empty (the paper explicitly allows the final ``C`` to store empty
        tiles); this compacts them away.
        """
        counts = self.tile_nnz_counts()
        keep = counts > 0
        if keep.all():
            return self
        trow = self.tile_rowidx()[keep]
        tileptr = np.zeros(self.num_tile_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(trow, minlength=self.num_tile_rows), out=tileptr[1:])
        tilennz = np.zeros(keep.sum() + 1, dtype=np.int64)
        np.cumsum(counts[keep], out=tilennz[1:])
        return TileMatrix(
            self.shape,
            self.tile_size,
            tileptr,
            self.tilecolidx[keep],
            tilennz,
            self.rowptr[keep],
            self.rowidx,
            self.colidx,
            self.val,
            self.mask[keep],
            check=False,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the tiled structure to an ``.npz`` file.

        The paper's Figure 12 argument is that the tiled format is worth
        holding *resident* across SpGEMM calls; persistence extends that
        residency across runs (e.g. an AMG hierarchy reused between
        solves) without paying the conversion again.
        """
        np.savez_compressed(
            path,
            shape=np.asarray(self.shape, dtype=np.int64),
            tile_size=np.asarray([self.tile_size], dtype=np.int64),
            tileptr=self.tileptr,
            tilecolidx=self.tilecolidx,
            tilennz=self.tilennz,
            rowptr=self.rowptr,
            rowidx=self.rowidx,
            colidx=self.colidx,
            val=self.val,
            mask=self.mask,
        )

    @classmethod
    def load(cls, path) -> "TileMatrix":
        """Load a tiled structure previously written by :meth:`save`.

        The loaded structure is fully validated (a corrupted or truncated
        file raises ``ValueError`` rather than producing silent garbage).
        """
        with np.load(path) as data:
            return cls(
                tuple(int(x) for x in data["shape"]),
                int(data["tile_size"][0]),
                data["tileptr"],
                data["tilecolidx"],
                data["tilennz"],
                data["rowptr"],
                data["rowidx"],
                data["colidx"],
                data["val"],
                data["mask"],
                check=True,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TileMatrix(shape={self.shape}, tile={self.tile_size}, "
            f"tiles={self.num_tiles}, nnz={self.nnz})"
        )

