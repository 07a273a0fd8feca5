"""TileSpGEMM reproduction: tiled parallel sparse matrix-matrix multiply.

A from-scratch Python implementation of

    Niu, Lu, Ji, Song, Jin, Liu.  "TileSpGEMM: A Tiled Algorithm for
    Parallel Sparse General Matrix-Matrix Multiplication on GPUs."
    PPoPP 2022.

Quick start::

    from repro import TileMatrix, tile_spgemm
    from repro.matrices import generators

    a = TileMatrix.from_coo(generators.banded(2000, 12, seed=1))
    result = tile_spgemm(a, a)
    print(result.c.nnz, result.timer.fractions())

Subpackages
-----------
``repro.core``
    The paper's contribution: the tiled sparse format and the three-step
    TileSpGEMM algorithm.
``repro.formats``
    Sparse-format substrate: COO, CSR, CSB-M/CSB-I, MatrixMarket I/O.
``repro.baselines``
    From-scratch implementations of every compared method (cuSPARSE-class
    SPA, bhSPARSE ESC, NSPARSE hash, spECK, tSparse, references).
``repro.gpu``
    The GPU execution model standing in for the paper's RTX 3060/3090.
``repro.matrices``
    Synthetic workload generators and the paper's named matrix suites.
``repro.analysis``
    Trend fitting, breakdown buckets, report tables.
``repro.apps``
    AMG, triangle counting and Markov clustering built on the SpGEMM API.
``repro.runtime`` / ``repro.errors``
    Resilient execution: typed errors, memory budgets, fault injection
    and the one shard engine that re-splits and retries failing tile-row
    ranges (:func:`repro.runtime.parallel.parallel_tile_spgemm`).
``repro.obs``
    Observability: structured tracing (Chrome trace-event / Perfetto
    export), kernel-counter metrics (Prometheus text export) and the
    ambient :func:`repro.obs.obs_context` that turns them on.
"""

from repro.core import (
    TILE,
    TileMatrix,
    TileSpGEMMResult,
    tile_spgemm,
    tile_spgemm_from_csr,
)
from repro.errors import (
    CommFailure,
    DeviceOOMError,
    InvalidInputError,
    ReproError,
    ResilienceExhausted,
    TransientKernelError,
)
from repro.formats import COOMatrix, CSBMatrix, CSRMatrix, read_mtx, write_mtx

__version__ = "1.0.0"

__all__ = [
    "TILE",
    "TileMatrix",
    "TileSpGEMMResult",
    "tile_spgemm",
    "tile_spgemm_from_csr",
    "COOMatrix",
    "CSBMatrix",
    "CSRMatrix",
    "read_mtx",
    "write_mtx",
    "ReproError",
    "InvalidInputError",
    "DeviceOOMError",
    "TransientKernelError",
    "CommFailure",
    "ResilienceExhausted",
    # lazily resolved from repro.runtime:
    "FaultPlan",
    "RetryPolicy",
    "parallel_tile_spgemm",
    # lazily resolved from repro.obs:
    "MetricsRegistry",
    "Tracer",
    "make_obs",
    "obs_context",
    "__version__",
]

_RUNTIME_EXPORTS = {"FaultPlan", "RetryPolicy", "parallel_tile_spgemm"}
_OBS_EXPORTS = {"MetricsRegistry", "Tracer", "make_obs", "obs_context"}


def __getattr__(name: str):
    if name in _RUNTIME_EXPORTS:
        import repro.runtime as _runtime

        return getattr(_runtime, name)
    if name in _OBS_EXPORTS:
        import repro.obs as _obs

        return getattr(_obs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
