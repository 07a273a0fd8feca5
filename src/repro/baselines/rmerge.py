"""RMerge-like SpGEMM: hierarchical row merging (Gremse et al.).

The paper's related-work §5 lists *merging* as the third sparse-accumulator
family (Gremse et al.'s RMerge, SIAM SISC'15/'18): each output row is
produced by repeatedly merging pairs of sorted scaled rows of ``B`` —
``ceil(log2(len(a_i*)))`` rounds of two-way sorted merges, never a hash
table and never a full sort.  On GPUs the two-way merges map well onto
warps for short rows, which is why RMerge variants backed bhSPARSE's
medium bins.

This implementation performs the genuine hierarchical merge: every round
halves the number of per-row sorted lists by merging adjacent pairs
(vectorised across the whole matrix at once — all rows' lists advance one
round per pass), with duplicate column indices combined at each merge.
Cost statistics record the rounds and merged-element traffic for the GPU
model.
"""

from __future__ import annotations

import numpy as np

from repro.baselines._expand import row_upper_bounds
from repro.errors import InvalidInputError
from repro.baselines.base import SpGEMMResult, flops_of_product, register
from repro.formats.csr import CSRMatrix
from repro.util.alloc import AllocationTracker
from repro.util.arrays import concat_ranges
from repro.util.timing import PhaseTimer

__all__ = ["rmerge_spgemm"]


def _merge_round(
    seg_of: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple:
    """One merge round: combine adjacent segment pairs.

    ``seg_of`` assigns every element to a (row-local) sorted segment; the
    round maps segment ``s`` to ``s // 2`` and re-sorts within the merged
    segments, summing duplicate columns.  A stable counting argument makes
    this equivalent to all the per-row two-way merges of the round.
    """
    new_seg = seg_of >> 1
    # Sort by (segment, column); stable so prior order breaks ties cheaply.
    order = np.lexsort((cols, new_seg))
    new_seg = new_seg[order]
    cols = cols[order]
    vals = vals[order]
    # Combine duplicates within each merged segment.
    if cols.size:
        first = np.empty(cols.size, dtype=bool)
        first[0] = True
        np.logical_or(
            new_seg[1:] != new_seg[:-1], cols[1:] != cols[:-1], out=first[1:]
        )
        starts = np.flatnonzero(first)
        vals = np.add.reduceat(vals, starts)
        cols = cols[starts]
        new_seg = new_seg[starts]
    return new_seg, cols, vals


@register("rmerge")
def rmerge_spgemm(a: CSRMatrix, b: CSRMatrix) -> SpGEMMResult:
    """Multiply ``a @ b`` by hierarchical two-way row merging."""
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError("dimension mismatch")
    timer = PhaseTimer()
    alloc = AllocationTracker()
    shape = (a.shape[0], b.shape[1])

    alloc.set_phase("analysis")
    with timer.phase("analysis"):
        ub = row_upper_bounds(a, b)
        row_lists = np.diff(a.indptr)  # lists to merge per row = len(a_i*)
        rounds = int(np.ceil(np.log2(max(row_lists.max(initial=1), 1)))) if a.nnz else 0
    with timer.phase("malloc"):
        alloc.alloc("row_upper_bounds", ub.size * 4)
        # Double-buffered merge workspace (ping-pong lists).
        alloc.alloc("merge_buffers", int(ub.sum()) * 12 * 2)

    # ------------------------------------------------- initial scaled lists
    with timer.phase("numeric"):
        b_row_len = np.diff(b.indptr)
        rep = b_row_len[a.indices] if a.nnz else np.empty(0, dtype=np.int64)
        b_pos = concat_ranges(b.indptr[a.indices], rep)
        cols = b.indices[b_pos]
        vals = np.repeat(a.val, rep) * b.val[b_pos]
        # Global segment id: (output row, list index within the row).
        list_of = np.repeat(np.arange(a.nnz, dtype=np.int64), rep)
        row_of_list = a.row_indices_expanded()
        # Position of each A nonzero within its row = its list index.
        list_pos = np.arange(a.nnz, dtype=np.int64) - a.indptr[row_of_list]
        max_lists = int(row_lists.max(initial=1))
        pow2 = 1 << max(rounds, 0)
        seg_of = row_of_list[list_of] * pow2 + list_pos[list_of]

        merge_elements = 0
        for _ in range(rounds):
            merge_elements += cols.size
            seg_of, cols, vals = _merge_round(seg_of, cols, vals)

        # After `rounds` halvings the per-row list index has shifted away
        # entirely: seg_of == (row * pow2 + pos) >> rounds == row.
        out_rows = seg_of
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(out_rows, minlength=shape[0]), out=indptr[1:])
        c = CSRMatrix(shape, indptr, cols, vals, check=False)
    with timer.phase("malloc"):
        alloc.alloc("C_indptr", indptr.size * 4)
        alloc.alloc("C_indices", c.nnz * 4)
        alloc.alloc("C_val", c.nnz * 8)
    alloc.free("merge_buffers")

    flops = flops_of_product(a, b)
    return SpGEMMResult(
        c=c,
        method="rmerge",
        timer=timer,
        alloc=alloc,
        stats={
            "flops": flops,
            "num_products": flops // 2,
            "nnz_c": c.nnz,
            "row_upper_bounds": ub,
            "merge_rounds": rounds,
            "merge_elements": merge_elements,
        },
    )
