"""Dense-row sparse accumulator (SPA) SpGEMM — the cuSPARSE-class baseline.

Gilbert, Moler & Schreiber's SPA is the oldest accumulator design: each
output row is accumulated in a *dense* working vector of length ``ncols``
plus an occupancy flag array, then gathered into sparse form.  NVIDIA's
closed-source cuSPARSE is commonly understood to combine dense-style
accumulation with vendor tuning; the paper cannot inspect it, so — as
DESIGN.md documents — this SPA implementation stands in for the
"dense-accumulator vendor library" point of comparison.

The defining costs reproduced here:

* a dense working row per parallel worker (``ncols`` values + flags) —
  charged to the allocator scaled by the device's resident worker count,
  which is why SPA-style methods run out of memory on wide matrices
  (cuSPARSE fails on several paper matrices);
* every product is a random write into the dense row;
* gathering touches the whole occupancy structure.
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

__all__ = ["spa_spgemm"]

#: Modelled number of concurrently resident worker rows (one dense SPA
#: each).  Real GPU libraries keep roughly this many thread blocks alive.
RESIDENT_WORKERS: int = 256


@register("cusparse_spa")
def spa_spgemm(a: CSRMatrix, b: CSRMatrix) -> SpGEMMResult:
    """Multiply ``a @ b`` row by row with a dense-row accumulator."""
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError("dimension mismatch")
    timer = PhaseTimer()
    alloc = AllocationTracker()
    nrows, ncols = a.shape[0], b.shape[1]

    alloc.set_phase("setup")
    with timer.phase("malloc"):
        workers = min(RESIDENT_WORKERS, max(nrows, 1))
        # value + stamp per dense-row slot, per resident worker.
        alloc.alloc("dense_rows", workers * ncols * 8)
        alloc.alloc("occupancy_stamps", workers * ncols * 4)

    dense = np.zeros(ncols, dtype=np.float64)
    b_row_len = np.diff(b.indptr)

    indptr = np.zeros(nrows + 1, dtype=np.int64)
    cols_out = []
    vals_out = []
    alloc.set_phase("numeric")
    with timer.phase("numeric"):
        for i in range(nrows):
            lo, hi = a.indptr[i], a.indptr[i + 1]
            if lo == hi:
                indptr[i + 1] = indptr[i]
                continue
            cols_a = a.indices[lo:hi]
            rep = b_row_len[cols_a]
            b_pos = concat_ranges(b.indptr[cols_a], rep)
            cand = b.indices[b_pos]
            prod = np.repeat(a.val[lo:hi], rep) * b.val[b_pos]
            # Scatter-add into the dense row (the SPA insert/add).
            np.add.at(dense, cand, prod)
            touched = np.unique(cand)
            cols_out.append(touched)
            vals_out.append(dense[touched])
            dense[touched] = 0.0
            indptr[i + 1] = indptr[i] + touched.size

    with timer.phase("malloc"):
        nnz_c = int(indptr[-1])
        alloc.alloc("C_indptr", indptr.size * 4)
        alloc.alloc("C_indices", nnz_c * 4)
        alloc.alloc("C_val", nnz_c * 8)

    indices = np.concatenate(cols_out) if cols_out else np.empty(0, dtype=np.int64)
    val = np.concatenate(vals_out) if vals_out else np.empty(0, dtype=np.float64)
    c = CSRMatrix((nrows, ncols), indptr, indices, val, check=False)

    flops = flops_of_product(a, b)
    return SpGEMMResult(
        c=c,
        method="cusparse_spa",
        timer=timer,
        alloc=alloc,
        stats={
            "flops": flops,
            "num_products": flops // 2,
            "nnz_c": c.nnz,
            "row_upper_bounds": row_upper_bounds(a, b),
            "dense_row_bytes": ncols * 12,
            "resident_workers": min(RESIDENT_WORKERS, max(nrows, 1)),
        },
    )
