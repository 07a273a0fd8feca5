"""Sampling-based upfront estimation of a multiply (OCEAN-style).

The planner (:mod:`repro.runtime.planner`) needs to know, *before* any
symbolic work runs, roughly how expensive ``C = A @ B`` will be and how
its work is distributed over A's tile rows.  Following the
estimation-driven strategy selection of OCEAN (PAPERS.md, "Fast
Estimation-Based SpGEMM"), two quantities carry almost all of that
signal:

* the **intermediate-product count** ``products = sum_k nnz(a_*k) *
  nnz(b_k*)`` — exact, one vectorised pass over ``nnz(A)``;
* the **compression rate** ``products / nnz(C)`` — estimated by
  row sampling: for a deterministic, evenly spaced subset of A's rows
  the per-row ``nnz(C)`` is computed *exactly* (union of the B rows the
  sampled A row touches), and the sampled compression rate scales the
  exact product total into an nnz(C) estimate.

Total cost is ``O(nnz(A) + nnz(B) + sample_rows * nnz/row)`` — the
``O(sample * nnz / rows)`` sampling term of the OCEAN estimator plus two
linear passes — versus the ``O(products)`` of actually multiplying.

The per-tile-row product histogram is returned alongside, because
equalising *predicted products* (not row counts) across shards is what
removes stragglers from the sharded parallel engine.  The compression
rate is also labelled with its :data:`COMPRESSION_BANDS` regime, which
the plan records so its trace instant names the regime each plan was
made in.

This module is deliberately dependency-light: it accepts CSR or tiled
operands in any mix, and imports nothing from the runtime or serving
layers, so both can build on it without cycles.  Its sort-free
:func:`row_nnz` / :func:`col_indices` reconstruction is also what the
serving tier's admission gate (:mod:`repro.serve.admission`) prices
with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.util.arrays import concat_ranges

__all__ = [
    "MultiplyEstimate",
    "estimate_multiply",
    "row_nnz",
    "col_indices",
    "row_products",
    "tile_row_products",
    "DEFAULT_SAMPLE_ROWS",
    "COMPRESSION_BANDS",
    "compression_band",
]

#: Rows sampled for the nnz(C)/compression estimate.  64 exact row
#: unions keep the estimator well under a millisecond on the ext
#: matrices while holding the compression-rate error to a few percent.
DEFAULT_SAMPLE_ROWS = 64

#: The sampled rows' distinct (row, column) keys are counted on a
#: ``(sampled rows x columns)`` boolean marker of at most this many cells,
#: else sorted by ``np.unique``.  The marker was 4-8x faster on every
#: end-to-end benchmark matrix (pdb1HYS 11.2 -> 1.8 ms, SiO2 36.6 -> 8.0
#: ms), the widest (cop20k_A) 0.7 M cells.
_MARKER_MAX_CELLS = 1 << 22

#: Compression-rate (products / nnz(C)) band edges and labels.  The rate
#: is >= 1 by construction; the paper's Figure 6 regime split motivates
#: the doubling buckets — accumulator behaviour changes with how much
#: the products compress.
COMPRESSION_BANDS = (
    (1.0, 2.0, "1-2"),
    (2.0, 4.0, "2-4"),
    (4.0, 8.0, "4-8"),
    (8.0, math.inf, "8+"),
)


def compression_band(rate: float) -> str:
    """The :data:`COMPRESSION_BANDS` label containing ``rate``."""
    for lo, hi, label in COMPRESSION_BANDS:
        if lo <= rate < hi:
            return label
    return COMPRESSION_BANDS[0][2] if rate < 1.0 else COMPRESSION_BANDS[-1][2]


# --------------------------------------------------------------- row views
def _element_rows(m) -> np.ndarray:
    """Global row of every stored element of tiled ``m``: element ``e``
    of a tile in tile row ``r`` lives at row ``r * T + rowidx[e]``."""
    tile_row = np.repeat(np.arange(m.num_tile_rows, dtype=np.int64), np.diff(m.tileptr))
    return np.repeat(tile_row * m.tile_size, np.diff(m.tilennz)) + m.rowidx


def row_nnz(m) -> np.ndarray:
    """Nonzeros per row of ``m`` (CSR or tiled), length ``m.shape[0]``.

    Sort-free O(nnz) for tiled operands, so the serving tier's admission
    gate can call it on the event loop.
    """
    if hasattr(m, "indptr"):
        return np.diff(m.indptr).astype(np.int64)
    return np.bincount(_element_rows(m), minlength=m.shape[0]).astype(np.int64)


def col_indices(m) -> np.ndarray:
    """Global column of every stored element of ``m`` (CSR or tiled).

    Tiled elements come in storage order: element ``e`` of tile ``t``
    lives at column ``tilecolidx[t] * T + colidx[e]``.  Sort-free.
    """
    if hasattr(m, "indices"):
        return m.indices
    tile_col = m.tilecolidx.astype(np.int64) * m.tile_size
    return np.repeat(tile_col, np.diff(m.tilennz)) + m.colidx


def _csr_view(m):
    """``(indptr, indices)`` row view of ``m`` (CSR or tiled).

    CSR operands are viewed in place.  Tiled operands reconstruct the
    per-row column lists once: :func:`col_indices` ordered by
    :func:`_element_rows` with a stable sort.
    """
    if hasattr(m, "indptr"):
        return m.indptr, m.indices
    rows = _element_rows(m)
    indptr = np.zeros(m.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m.shape[0]), out=indptr[1:])
    return indptr, col_indices(m)[np.argsort(rows, kind="stable")]


def _tile_size_of(m, tile_size: Optional[int]) -> int:
    if tile_size is not None:
        return int(tile_size)
    return int(getattr(m, "tile_size", 16))


def _row_products(a_indptr, a_indices, b_indptr) -> np.ndarray:
    b_row_nnz = np.diff(b_indptr).astype(np.int64)
    per_elem = b_row_nnz[a_indices] if a_indices.size else np.zeros(0, np.int64)
    cum = np.zeros(len(per_elem) + 1, dtype=np.int64)
    np.cumsum(per_elem, out=cum[1:])
    return cum[a_indptr[1:]] - cum[a_indptr[:-1]]


def row_products(a, b) -> np.ndarray:
    """Exact intermediate products contributed by each row of ``a``.

    ``products[i] = sum_{k in a_i*} nnz(b_k*)`` — one gather over
    ``nnz(A)`` plus a segment sum, no multiply.
    """
    a_indptr, a_indices = _csr_view(a)
    b_indptr, _ = _csr_view(b)
    return _row_products(a_indptr, a_indices, b_indptr)


def _band_by_tile_row(per_row: np.ndarray, T: int) -> np.ndarray:
    num_tile_rows = (len(per_row) + T - 1) // T
    if num_tile_rows == 0:
        return np.zeros(0, dtype=np.int64)
    bands = np.arange(len(per_row), dtype=np.int64) // T
    return np.bincount(bands, weights=per_row, minlength=num_tile_rows).astype(
        np.int64
    )


def tile_row_products(a, b, tile_size: Optional[int] = None) -> np.ndarray:
    """Exact products per *tile row* of ``a`` — the shard cost weights.

    Length ``ceil(rows / tile_size)``; ``tile_size`` defaults to ``a``'s
    own when it is tiled.
    """
    return _band_by_tile_row(row_products(a, b), _tile_size_of(a, tile_size))


@dataclass(frozen=True)
class MultiplyEstimate:
    """The upfront shape of one multiply.

    Attributes
    ----------
    num_rows, rows_sampled:
        A's row count and how many rows the nnz(C) sample covered
        (``rows_sampled == num_rows`` makes the estimate exact).
    products:
        Exact intermediate-product count (``nnz(C) <= products``).
    est_nnz_c:
        Estimated output nonzeros: ``products / compression``.
    compression:
        Estimated compression rate ``products / nnz(C)`` (>= 1).
    band:
        The :data:`COMPRESSION_BANDS` label of ``compression`` — the
        regime the plan's record names.
    tile_row_products:
        Exact per-tile-row product histogram (shard cost weights).
    tile_size:
        Tile size the histogram was banded with.
    """

    num_rows: int
    rows_sampled: int
    products: int
    est_nnz_c: float
    compression: float
    band: str
    tile_row_products: np.ndarray
    tile_size: int

    def to_dict(self) -> Dict[str, object]:
        """Native-typed summary for plan artifacts (no arrays)."""
        return {
            "num_rows": int(self.num_rows),
            "rows_sampled": int(self.rows_sampled),
            "products": int(self.products),
            "est_nnz_c": float(self.est_nnz_c),
            "compression": float(self.compression),
            "band": self.band,
            "num_tile_rows": int(len(self.tile_row_products)),
            "tile_size": int(self.tile_size),
        }


def estimate_multiply(
    a,
    b,
    sample_rows: int = DEFAULT_SAMPLE_ROWS,
    tile_size: Optional[int] = None,
) -> MultiplyEstimate:
    """Estimate ``a @ b`` by exact products + row-sampled compression.

    Deterministic: the sample is the ``sample_rows`` evenly spaced row
    indices (every row when ``num_rows <= sample_rows``, making
    ``est_nnz_c`` exact), so two calls on the same operands always
    produce the same estimate — a requirement for plan reproducibility
    and the byte-identity contract of planned parallel runs.
    """
    a_indptr, a_indices = _csr_view(a)
    b_indptr, b_indices = (a_indptr, a_indices) if b is a else _csr_view(b)
    per_row = _row_products(a_indptr, a_indices, b_indptr)
    products = int(per_row.sum())
    num_rows = int(a.shape[0])
    T = _tile_size_of(a, tile_size)

    sample_rows = max(1, int(sample_rows))
    if num_rows <= sample_rows:
        sampled = np.arange(num_rows, dtype=np.int64)
    else:
        # Evenly spaced indices: distinct (sample_rows <= num_rows) and
        # deterministic; the compression-rate *ratio* transfers to the
        # unsampled rows.
        sampled = (np.arange(sample_rows, dtype=np.int64) * num_rows) // sample_rows

    # The B rows every sampled A row touches, gathered in one pass; the
    # sampled nnz(C) is the count of distinct (sampled row, column) keys.
    a_len = a_indptr[sampled + 1] - a_indptr[sampled]
    ks = a_indices[concat_ranges(a_indptr[sampled], a_len)]
    b_len = b_indptr[ks + 1] - b_indptr[ks]
    touched = b_indices[concat_ranges(b_indptr[ks], b_len)]
    sample_of = np.repeat(np.repeat(np.arange(sampled.size, dtype=np.int64), a_len), b_len)
    sampled_products = int(touched.size)
    ncols = max(int(b.shape[1]), 1)
    if sampled.size * ncols <= _MARKER_MAX_CELLS:
        marker = np.zeros((sampled.size, ncols), dtype=bool)
        marker[sample_of, touched] = True
        sampled_nnz_c = int(np.count_nonzero(marker))
    else:
        sampled_nnz_c = int(np.unique(sample_of * ncols + touched).size)

    if sampled_products > 0:
        compression = sampled_products / max(sampled_nnz_c, 1)
    else:
        compression = 1.0  # nothing sampled produced output: assume no reuse
    compression = max(compression, 1.0)
    est_nnz_c = min(float(products), products / compression) if products else 0.0

    return MultiplyEstimate(
        num_rows=num_rows,
        rows_sampled=int(len(sampled)),
        products=products,
        est_nnz_c=est_nnz_c,
        compression=float(compression),
        band=compression_band(float(compression)),
        tile_row_products=_band_by_tile_row(per_row, T),
        tile_size=T,
    )
