"""Reference row-row SpGEMM (Gustavson 1978) — the paper's Algorithm 1.

This is the plainest possible rendition of the row-row formulation: for
every row ``a_i*``, scale the rows ``b_j*`` by the nonzeros ``a_ij`` and
accumulate into ``c_i*`` with a per-row dictionary.  It is deliberately
unoptimised — its role is to be an *obviously correct* oracle for the
tests (alongside SciPy) and the didactic starting point the three
performance issues of §2.2 are told against.

The three annotated performance issues of the paper's Algorithm 1 map
directly onto this code:

* issue 1 — the outer loop's iterations have wildly uneven cost;
* issue 2 — ``len(acc)`` is unknown until the row finishes, so a real
  parallel implementation must guess an allocation;
* issue 3 — the dictionary is the sparse accumulator whose design the
  whole SpGEMM literature argues about.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidInputError
from repro.baselines.base import SpGEMMResult, flops_of_product, register
from repro.formats.csr import CSRMatrix
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer

__all__ = ["gustavson_spgemm"]


@register("gustavson")
def gustavson_spgemm(a: CSRMatrix, b: CSRMatrix) -> SpGEMMResult:
    """Multiply ``a @ b`` row by row with a dict accumulator."""
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError("dimension mismatch")
    timer = PhaseTimer()
    alloc = AllocationTracker()
    nrows = a.shape[0]

    indptr = np.zeros(nrows + 1, dtype=np.int64)
    cols_out = []
    vals_out = []
    with timer.phase("numeric"):
        for i in range(nrows):
            acc: dict = {}
            lo, hi = a.indptr[i], a.indptr[i + 1]
            for t in range(lo, hi):
                j = a.indices[t]
                aij = a.val[t]
                blo, bhi = b.indptr[j], b.indptr[j + 1]
                for s in range(blo, bhi):
                    k = b.indices[s]
                    v = aij * b.val[s]
                    if k in acc:
                        acc[k] += v
                    else:
                        acc[k] = v
            if acc:
                keys = np.fromiter(acc.keys(), dtype=np.int64, count=len(acc))
                order = np.argsort(keys)
                cols_out.append(keys[order])
                vals_out.append(
                    np.fromiter(acc.values(), dtype=np.float64, count=len(acc))[order]
                )
            indptr[i + 1] = indptr[i] + len(acc)

    indices = np.concatenate(cols_out) if cols_out else np.empty(0, dtype=np.int64)
    val = np.concatenate(vals_out) if vals_out else np.empty(0, dtype=np.float64)
    c = CSRMatrix((a.shape[0], b.shape[1]), indptr, indices, val, check=False)

    alloc.set_phase("numeric")
    alloc.alloc("C_indptr", indptr.size * 4)
    alloc.alloc("C_indices", indices.size * 4)
    alloc.alloc("C_val", val.size * 8)
    flops = flops_of_product(a, b)
    return SpGEMMResult(
        c=c,
        method="gustavson",
        timer=timer,
        alloc=alloc,
        stats={"flops": flops, "num_products": flops // 2, "nnz_c": c.nnz},
    )
