"""NSPARSE-like SpGEMM: two-phase hashing with row binning.

Nagasaka et al.'s NSPARSE (the paper's third comparison library) runs the
row-row formulation in two passes:

1. **symbolic** — per output row, insert the candidate column indices into
   a hash table to count the row's exact nonzeros; rows are first grouped
   into size bins so each bin's kernel can size its shared-memory table,
   and rows whose table exceeds shared memory fall back to global-memory
   tables (the expensive case the paper calls out).
2. ``C`` is then allocated *exactly* — no intermediate product buffer —
   and a second **numeric** pass re-enumerates the products, hashing
   (column, value) pairs with atomic adds, then compacts tables to rows.

Here the two passes are performed for real (the candidate enumeration runs
twice, as on the GPU), with the accumulation done by NumPy sort/reduce.
The hash-probe behaviour that the sort replaces is accounted explicitly:
per-row table sizes (next power of two above ``2 * upper_bound``), load
factors, and the standard linear-probing expected probe counts feed the
stats that the GPU cost model charges for table traffic.
"""

from __future__ import annotations

import numpy as np

from repro.baselines._expand import (
    compress_sorted,
    expand_pattern,
    expand_products,
    row_upper_bounds,
)
from repro.errors import InvalidInputError
from repro.baselines.base import SpGEMMResult, flops_of_product, register
from repro.formats.csr import CSRMatrix
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer

__all__ = ["hash_spgemm", "hash_table_sizes", "expected_probes"]

#: Shared-memory capacity NSPARSE assumes per thread block (entries).  Rows
#: whose hash table exceeds this use global-memory tables.
SHARED_TABLE_ENTRIES: int = 8192

#: NSPARSE's symbolic bins (upper bound on row nnz): powers of two.
SYMBOLIC_BINS: np.ndarray = 2 ** np.arange(5, 14, dtype=np.int64)  # 32 .. 8192


def hash_table_sizes(upper_bounds: np.ndarray) -> np.ndarray:
    """Per-row hash table size: next power of two >= 2x the upper bound."""
    ub = np.maximum(np.asarray(upper_bounds, dtype=np.int64), 1)
    return (2 ** np.ceil(np.log2(2 * ub))).astype(np.int64)


def expected_probes(occupied: np.ndarray, table_size: np.ndarray) -> np.ndarray:
    """Expected probes per insertion under linear probing.

    Knuth's classic estimate for a successful search at load factor
    ``alpha``: ``(1 + 1 / (1 - alpha)) / 2``.  Load factors are clamped
    below 1 to keep the estimate finite for pathological rows.
    """
    alpha = np.clip(
        np.asarray(occupied, dtype=np.float64) / np.maximum(table_size, 1), 0.0, 0.97
    )
    return (1.0 + 1.0 / (1.0 - alpha)) / 2.0


@register("nsparse_hash")
def hash_spgemm(a: CSRMatrix, b: CSRMatrix) -> SpGEMMResult:
    """Multiply ``a @ b`` with the two-phase hash strategy (NSPARSE)."""
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError("dimension mismatch")
    timer = PhaseTimer()
    alloc = AllocationTracker()
    shape = (a.shape[0], b.shape[1])

    # ------------------------------------------------------------ analysis
    alloc.set_phase("analysis")
    with timer.phase("analysis"):
        ub = row_upper_bounds(a, b)
        table = hash_table_sizes(ub)
        sym_bins = np.searchsorted(SYMBOLIC_BINS, ub, side="left")
        global_rows = table > SHARED_TABLE_ENTRIES
    with timer.phase("malloc"):
        alloc.alloc("row_upper_bounds", ub.size * 4)
        alloc.alloc("symbolic_bins", ub.size * 4)
        # Global-memory hash tables for rows that do not fit shared memory
        # (column index + value slot per entry).
        global_table_entries = int(table[global_rows].sum())
        if global_table_entries:
            alloc.alloc("global_hash_tables", global_table_entries * 12)

    # ------------------------------------------------------------ symbolic
    alloc.set_phase("symbolic")
    with timer.phase("symbolic"):
        rows_p, cols_p = expand_pattern(a, b)
        key = rows_p * shape[1] + cols_p
        uniq = np.unique(key)
        row_nnz = np.bincount(uniq // shape[1], minlength=shape[0])
    with timer.phase("malloc"):
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=indptr[1:])
        nnz_c = int(indptr[-1])
        alloc.alloc("C_indptr", indptr.size * 4)
        alloc.alloc("C_indices", nnz_c * 4)
        alloc.alloc("C_val", nnz_c * 8)

    # ------------------------------------------------------------- numeric
    alloc.set_phase("numeric")
    with timer.phase("numeric"):
        rows, cols, vals = expand_products(a, b)
        c = compress_sorted(rows, cols, vals, shape)
    if global_table_entries:
        alloc.free("global_hash_tables")

    if c.nnz != nnz_c:
        raise AssertionError("symbolic and numeric phases disagree on nnz(C)")

    flops = flops_of_product(a, b)
    occupied = c.row_lengths()
    probes = expected_probes(occupied, table)
    return SpGEMMResult(
        c=c,
        method="nsparse_hash",
        timer=timer,
        alloc=alloc,
        stats={
            "flops": flops,
            "num_products": flops // 2,
            "nnz_c": c.nnz,
            "row_upper_bounds": ub,
            "hash_table_sizes": table,
            "expected_probes_per_insert": probes,
            "symbolic_bin_histogram": np.bincount(sym_bins, minlength=SYMBOLIC_BINS.size + 1),
            "global_memory_rows": int(global_rows.sum()),
        },
    )
