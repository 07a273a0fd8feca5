"""bhSPARSE-like SpGEMM: expansion, sorting, compression (ESC).

Liu & Vinter's bhSPARSE (IPDPS'14 / JPDC'15) is the paper's second
comparison library.  Its pipeline:

1. **analysis** — compute each output row's upper-bound size and sort the
   rows into 38 bins by that bound; each bin gets a kernel specialised for
   its size class (tiny rows use registers, medium rows heaps in shared
   memory, huge rows the ESC path in global memory with *progressive*
   allocation).
2. **expansion** — materialise every intermediate product in a global
   buffer.  This allocation is proportional to ``flops/2`` and is exactly
   the space blow-up the paper's Figure 9 shows for bhSPARSE.
3. **sorting** — sort products by (row, column).
4. **compression** — segmented reduction merges duplicates; then the
   result is copied into an exactly-sized ``C``.

This implementation performs the real ESC pipeline vectorised (the values
are produced by genuine expansion + sort + reduce), reproduces the 38-bin
analysis for the load-balance statistics, and charges the allocator for
the full intermediate buffer plus bhSPARSE's progressive re-allocation of
long rows (allocate, outgrow, double — modelled as one extra half-size
allocation on the bins that exceed the shared-memory class).
"""

from __future__ import annotations

import numpy as np

from repro.baselines._expand import compress_sorted, expand_products, row_upper_bounds
from repro.errors import InvalidInputError
from repro.baselines.base import SpGEMMResult, flops_of_product, register
from repro.formats.csr import CSRMatrix
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer

__all__ = ["esc_spgemm", "BIN_BOUNDS"]

#: bhSPARSE's 38 bin upper bounds on the row's intermediate-product count:
#: 0..32 one bin each, then doubling classes, then the "huge" bin.
BIN_BOUNDS: np.ndarray = np.concatenate(
    [np.arange(0, 33), [64, 128, 256, 512, 1024]]
).astype(np.int64)

#: Rows whose upper bound exceeds this use the global-memory ESC path with
#: progressive allocation (bhSPARSE's last bins).
SHARED_LIMIT: int = 256


def bin_rows(upper_bounds: np.ndarray) -> np.ndarray:
    """Assign every row to its bhSPARSE bin; returns bin ids (0..37)."""
    return np.searchsorted(BIN_BOUNDS, upper_bounds, side="left").astype(np.int64)


@register("bhsparse_esc")
def esc_spgemm(a: CSRMatrix, b: CSRMatrix) -> SpGEMMResult:
    """Multiply ``a @ b`` with the ESC pipeline (bhSPARSE strategy)."""
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError("dimension mismatch")
    timer = PhaseTimer()
    alloc = AllocationTracker()

    # ------------------------------------------------------------ analysis
    alloc.set_phase("analysis")
    with timer.phase("analysis"):
        ub = row_upper_bounds(a, b)
        bins = bin_rows(ub)
        bin_hist = np.bincount(bins, minlength=BIN_BOUNDS.size + 1)
    with timer.phase("malloc"):
        alloc.alloc("row_upper_bounds", ub.size * 4)
        alloc.alloc("bin_ids", bins.size * 4)

    # ----------------------------------------------------------- expansion
    total_products = int(ub.sum())
    alloc.set_phase("expansion")
    with timer.phase("malloc"):
        # The defining allocation of ESC: the full intermediate buffer
        # (column index + value per product).
        alloc.alloc("intermediate_cols", total_products * 4)
        alloc.alloc("intermediate_vals", total_products * 8)
        # Progressive allocation: long rows outgrow their first buffer and
        # bhSPARSE re-allocates; charge one extra half-size buffer over the
        # products owned by global-memory rows.
        long_products = int(ub[ub > SHARED_LIMIT].sum())
        if long_products:
            alloc.alloc("progressive_realloc", long_products * 6)
    with timer.phase("expansion"):
        rows, cols, vals = expand_products(a, b)

    # --------------------------------------------------- sorting + compress
    alloc.set_phase("sort_compress")
    with timer.phase("sorting"):
        key = rows * b.shape[1] + cols
        order = np.argsort(key, kind="stable")
    with timer.phase("compression"):
        c = compress_sorted(
            rows[order],
            cols[order],
            vals[order],
            (a.shape[0], b.shape[1]),
            assume_sorted=True,
        )
    with timer.phase("malloc"):
        alloc.alloc("C_indptr", (c.nrows + 1) * 4)
        alloc.alloc("C_indices", c.nnz * 4)
        alloc.alloc("C_val", c.nnz * 8)
    # The intermediate buffers are released once C is materialised.
    alloc.free("intermediate_cols")
    alloc.free("intermediate_vals")
    if total_products and long_products:
        alloc.free("progressive_realloc")

    flops = flops_of_product(a, b)
    return SpGEMMResult(
        c=c,
        method="bhsparse_esc",
        timer=timer,
        alloc=alloc,
        stats={
            "flops": flops,
            "num_products": total_products,
            "nnz_c": c.nnz,
            "row_upper_bounds": ub,
            "bin_histogram": bin_hist,
            "global_memory_rows": int((ub > SHARED_LIMIT).sum()),
            "intermediate_bytes": total_products * 12,
        },
    )
