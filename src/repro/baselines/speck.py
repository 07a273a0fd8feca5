"""spECK-like SpGEMM: lightweight analysis + hierarchical hash kernels.

Parger et al.'s spECK (PPoPP'20) is the strongest row-row competitor in
the paper.  Its distinguishing ideas, reproduced here:

* a *lightweight preprocessing* pass — cheap per-row upper bounds and a
  global maximum, no full expansion — chooses per-row strategies from a
  small decision matrix (the paper's "lightweight analysis");
* rows are partitioned hierarchically into bins sized to the actual work
  so warp/block assignment is balanced (spECK's main edge over NSPARSE);
* hash tables live in shared memory for all but the very longest rows;
  only those spill to global-memory tables, so the temporary footprint is
  far smaller than bhSPARSE's full expansion (visible in Figure 9);
* symbolic counting and numeric accumulation are fused per bin (one
  enumeration feeds the count and the values), unlike NSPARSE's two full
  passes.

The numeric kernel here enumerates the products once and accumulates with
a sort/reduce; the analysis, binning, spill accounting and allocation
behaviour follow the strategy above and feed the GPU cost model.
"""

from __future__ import annotations

import numpy as np

from repro.baselines._expand import compress_sorted, expand_products, row_upper_bounds
from repro.errors import InvalidInputError
from repro.baselines.base import SpGEMMResult, flops_of_product, register
from repro.formats.csr import CSRMatrix
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer

__all__ = ["speck_spgemm"]

#: spECK keeps rows in shared-memory hash tables up to this many entries
#: (larger than NSPARSE thanks to its tighter table layout).
SHARED_TABLE_ENTRIES: int = 8192

#: Fixed global-memory spill pool.  Unlike NSPARSE, spECK does not allocate
#: per-row global tables; rows that outgrow shared memory stream through a
#: small preallocated pool in waves — the design choice that keeps its
#: temporary footprint low in the paper's Figure 9.
GLOBAL_SPILL_POOL_BYTES: int = 4 << 20

#: Hierarchical bin boundaries on the row upper bound (work classes).
BIN_BOUNDS: np.ndarray = np.array(
    [0, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384], dtype=np.int64
)


@register("speck")
def speck_spgemm(a: CSRMatrix, b: CSRMatrix) -> SpGEMMResult:
    """Multiply ``a @ b`` with the spECK strategy."""
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError("dimension mismatch")
    timer = PhaseTimer()
    alloc = AllocationTracker()
    shape = (a.shape[0], b.shape[1])

    # ------------------------------------------------- lightweight analysis
    alloc.set_phase("analysis")
    with timer.phase("analysis"):
        ub = row_upper_bounds(a, b)
        bins = np.searchsorted(BIN_BOUNDS, ub, side="left")
        bin_hist = np.bincount(bins, minlength=BIN_BOUNDS.size + 1)
        spill_rows = ub > SHARED_TABLE_ENTRIES
    with timer.phase("malloc"):
        alloc.alloc("row_upper_bounds", ub.size * 4)
        alloc.alloc("row_bins", ub.size * 1)  # spECK packs bin ids tightly
        spill_entries = int(ub[spill_rows].sum())
        if spill_entries:
            alloc.alloc("global_spill_pool", GLOBAL_SPILL_POOL_BYTES)

    # ------------------------------------------- fused symbolic + numeric
    alloc.set_phase("numeric")
    with timer.phase("numeric"):
        rows, cols, vals = expand_products(a, b)
        c = compress_sorted(rows, cols, vals, shape)
    with timer.phase("malloc"):
        alloc.alloc("C_indptr", (c.nrows + 1) * 4)
        alloc.alloc("C_indices", c.nnz * 4)
        alloc.alloc("C_val", c.nnz * 8)
    if spill_entries:
        alloc.free("global_spill_pool")

    flops = flops_of_product(a, b)
    return SpGEMMResult(
        c=c,
        method="speck",
        timer=timer,
        alloc=alloc,
        stats={
            "flops": flops,
            "num_products": flops // 2,
            "nnz_c": c.nnz,
            "row_upper_bounds": ub,
            "bin_histogram": bin_hist,
            "global_memory_rows": int(spill_rows.sum()),
        },
    )
