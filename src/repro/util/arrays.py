"""Vectorised segment/array helpers shared by the SpGEMM kernels.

The vectorised TileSpGEMM pipeline and the row-row baselines all work on
*segmented* flat arrays (nonzeros grouped by row or by tile).  The helpers
here implement the classic NumPy idioms for that representation:
concatenated ``arange`` ranges, per-segment positions, and segmented
reductions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "concat_ranges",
    "segment_ids",
    "segment_positions",
    "segmented_sum",
]


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + lengths[i])`` for every i.

    Equivalent to ``np.concatenate([np.arange(s, s + l) ...])`` but runs in
    O(total) vectorised time.  Zero-length segments are allowed.

    Examples
    --------
    >>> concat_ranges(np.array([5, 0]), np.array([3, 2])).tolist()
    [5, 6, 7, 0, 1]
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise ValueError("starts and lengths must have identical shapes")
    if np.any(lengths < 0):
        raise ValueError("negative segment length")
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Output element k of segment i is k shifted by starts[i] minus the
    # segment's own output offset.
    out = np.repeat(starts - (ends - lengths), lengths)
    out += np.arange(total, dtype=np.int64)
    return out


def segment_ids(lengths: np.ndarray) -> np.ndarray:
    """For segments of the given lengths, the segment id of every element.

    Examples
    --------
    >>> segment_ids(np.array([2, 0, 3])).tolist()
    [0, 0, 2, 2, 2]
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)


def segment_positions(lengths: np.ndarray) -> np.ndarray:
    """Position of every element within its segment (0-based).

    Examples
    --------
    >>> segment_positions(np.array([2, 3])).tolist()
    [0, 1, 0, 1, 2]
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def segmented_sum(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum ``values`` within consecutive segments of the given lengths."""
    values = np.asarray(values)
    lengths = np.asarray(lengths, dtype=np.int64)
    if int(lengths.sum()) != values.size:
        raise ValueError("segment lengths do not cover the value array")
    if values.size == 0:
        return np.zeros(lengths.size, dtype=values.dtype if values.dtype.kind == "f" else np.int64)
    csum = np.concatenate([[0], np.cumsum(values)])
    ends = np.cumsum(lengths)
    starts = ends - lengths
    return csum[ends] - csum[starts]
