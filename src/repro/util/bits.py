"""Bit-mask helpers used by the tiled sparse format.

The paper stores, for every 16x16 sparse tile, one 16-bit unsigned mask per
tile row: bit ``c`` of row ``r``'s mask is set iff the tile has a nonzero at
local position ``(r, c)``.  The symbolic phase of TileSpGEMM works almost
entirely on these masks (AtomicOr accumulation, popcount to derive per-row
nonzero counts, prefix popcount to derive positions), so fast vectorised
mask arithmetic is the foundation of the whole implementation.

Everything here is pure NumPy.  The popcounts are ``np.bitwise_count``
(numpy >= 2.0), the vectorised stand-in for the hardware ``__popc``
intrinsic the CUDA kernels use; only ``nth_set_bit`` keeps a lookup
table.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "popcount16",
    "prefix_popcount",
]


def popcount16(masks: np.ndarray) -> np.ndarray:
    """Return the number of set bits of each 16-bit mask in ``masks``.

    Parameters
    ----------
    masks:
        Array of any shape with an unsigned integer dtype whose values fit
        in 16 bits.

    Returns
    -------
    numpy.ndarray of uint8 with the same shape as ``masks``.
    """
    return np.bitwise_count(np.asarray(masks))


def prefix_popcount(masks: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rank of bit ``cols`` inside ``masks``: set bits strictly below it.

    This is the key primitive of the *sparse accumulator*: given a tile-row
    mask and a column index, it returns the offset of that column's nonzero
    within the compacted per-row storage.

    Parameters
    ----------
    masks:
        16-bit masks (any shape, unsigned values < 2**16).
    cols:
        Column indices in [0, 16), broadcastable against ``masks``.
    """
    # The shift is taken in at least 16 bits: ``1 << cols`` on uint8
    # columns would wrap from column 8 on.
    below = (np.uint16(1) << np.asarray(cols)) - np.uint16(1)
    return np.bitwise_count(np.asarray(masks) & below)


#: For each 16-bit mask m, NTHBIT16[m, j] = column of the j-th (lowest-first)
#: set bit, or 255 when j >= popcount(m).  1 MiB, built lazily: only the
#: symbolic→numeric expansion of C's indices needs it.
_NTHBIT16: np.ndarray | None = None


def _nthbit_table() -> np.ndarray:
    global _NTHBIT16
    if _NTHBIT16 is None:
        table = np.full((1 << 16, 16), 255, dtype=np.uint8)
        masks = np.arange(1 << 16, dtype=np.uint32)
        rank = np.zeros(1 << 16, dtype=np.uint8)
        for c in range(16):
            has_bit = (masks >> c) & 1 == 1
            table[has_bit, rank[has_bit]] = c
            rank[has_bit] += 1
        _NTHBIT16 = table
    return _NTHBIT16


def nth_set_bit(masks: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Column of the ``ranks``-th set bit of each 16-bit mask.

    This converts a symbolic row mask plus within-row rank back into a
    local column index; the numeric step uses it to materialise ``C``'s
    ``colidx`` array from the step-2 masks.
    """
    table = _nthbit_table()
    return table[np.asarray(masks, dtype=np.uint32), np.asarray(ranks, dtype=np.intp)]
