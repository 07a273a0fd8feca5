"""Heap (priority-queue) accumulator SpGEMM.

The heap accumulator — Azad et al. on CPUs, Liu & Vinter's medium-row bins
on GPUs — merges the ``len(a_i*)`` sorted candidate rows of ``B`` with a
k-way heap, emitting output columns in order and summing equal heads.  Its
complexity is ``O(products * log(len(a_i*)))`` but it needs no hash table
and no post-sort, which made it attractive for mid-size rows.

This is a faithful per-row Python implementation over :mod:`heapq`; it is
the slowest vectorisation class in the repository and is used for
correctness cross-checks and the accumulator-comparison bench rather than
the large sweeps.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import InvalidInputError
from repro.baselines.base import SpGEMMResult, flops_of_product, register
from repro.formats.csr import CSRMatrix
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer

__all__ = ["heap_spgemm"]


@register("heap_merge")
def heap_spgemm(a: CSRMatrix, b: CSRMatrix) -> SpGEMMResult:
    """Multiply ``a @ b`` with a per-row k-way heap merge."""
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError("dimension mismatch")
    timer = PhaseTimer()
    alloc = AllocationTracker()
    nrows = a.shape[0]

    indptr = np.zeros(nrows + 1, dtype=np.int64)
    cols_out = []
    vals_out = []
    max_heap = 0
    with timer.phase("numeric"):
        for i in range(nrows):
            lo, hi = a.indptr[i], a.indptr[i + 1]
            # Seed the heap with the first element of each scaled B row.
            heap = []
            for t in range(lo, hi):
                j = a.indices[t]
                blo, bhi = b.indptr[j], b.indptr[j + 1]
                if blo < bhi:
                    heap.append((int(b.indices[blo]), int(blo), int(bhi), float(a.val[t])))
            heapq.heapify(heap)
            max_heap = max(max_heap, len(heap))
            row_cols = []
            row_vals = []
            while heap:
                col, pos, end, scale = heapq.heappop(heap)
                v = scale * b.val[pos]
                if row_cols and row_cols[-1] == col:
                    row_vals[-1] += v
                else:
                    row_cols.append(col)
                    row_vals.append(v)
                pos += 1
                if pos < end:
                    heapq.heappush(heap, (int(b.indices[pos]), pos, end, scale))
            cols_out.append(np.asarray(row_cols, dtype=np.int64))
            vals_out.append(np.asarray(row_vals, dtype=np.float64))
            indptr[i + 1] = indptr[i] + len(row_cols)

    indices = np.concatenate(cols_out) if cols_out else np.empty(0, dtype=np.int64)
    val = np.concatenate(vals_out) if vals_out else np.empty(0, dtype=np.float64)
    c = CSRMatrix((a.shape[0], b.shape[1]), indptr, indices, val, check=False)

    alloc.set_phase("numeric")
    alloc.alloc("heap_workspace", max_heap * 24)
    alloc.alloc("C_indptr", indptr.size * 4)
    alloc.alloc("C_indices", c.nnz * 4)
    alloc.alloc("C_val", c.nnz * 8)
    flops = flops_of_product(a, b)
    return SpGEMMResult(
        c=c,
        method="heap_merge",
        timer=timer,
        alloc=alloc,
        stats={
            "flops": flops,
            "num_products": flops // 2,
            "nnz_c": c.nnz,
            "max_heap_size": max_heap,
        },
    )
