"""Shared infrastructure for the benchmark harnesses.

Each ``bench_*`` module regenerates one of the paper's tables or figures:
it runs the relevant algorithms on the relevant suite, prints the same
rows/series the paper reports, and saves the rendered table under
``benchmarks/results/``.  ``pytest-benchmark`` wraps one representative
kernel invocation per module so wall-clock timings land in the benchmark
report as well.

Runs are cached per ``(matrix, method, op)`` across modules — many figures
share the same underlying executions (Figure 7's runs feed Figures 9 and
10), exactly like the paper's artifact scripts reuse one measurement pass.

Environment knobs:

* ``REPRO_BENCH_MAX_MATRICES`` — cap the Figure 6 sweep (default: full).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

# Make `tests.conftest` importable when running `pytest benchmarks/`.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.baselines import get_algorithm
from repro.baselines.base import SpGEMMResult
from repro.core.tile_matrix import TileMatrix
from repro.formats.csr import CSRMatrix

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: The five methods of the paper's main comparison, in its plotting order.
PAPER_METHODS = ["cusparse_spa", "bhsparse_esc", "nsparse_hash", "speck", "tilespgemm"]

#: Pretty names used in the printed tables.
METHOD_LABELS = {
    "cusparse_spa": "cuSPARSE*",
    "bhsparse_esc": "bhSPARSE*",
    "nsparse_hash": "NSPARSE*",
    "speck": "spECK*",
    "tilespgemm": "TileSpGEMM",
    "tsparse": "tSparse*",
}

_RUN_CACHE: Dict[Tuple[int, str, str], SpGEMMResult] = {}
_TILED_CACHE: Dict[int, TileMatrix] = {}


def tiled_of(a: CSRMatrix) -> TileMatrix:
    """Cached CSR -> tiled conversion for a suite matrix."""
    key = id(a)
    if key not in _TILED_CACHE:
        _TILED_CACHE[key] = TileMatrix.from_csr(a)
    return _TILED_CACHE[key]


def run_method(
    method: str, a: CSRMatrix, op: str = "aa", cache: bool = True, **kwargs
) -> SpGEMMResult:
    """Run ``method`` on ``C = A^2`` (op="aa") or ``C = A A^T`` (op="aat").

    Results are cached by default so figures sharing a suite (7/9/10 on the
    representative 18, 13/14 on the tSparse 16) reuse one measurement pass;
    pass ``cache=False`` for sweeps whose results are consumed once (the
    Figure 6 dataset) to bound host memory.
    """
    key = (id(a), method, op)
    if key in _RUN_CACHE:
        return _RUN_CACHE[key]
    b = a if op == "aa" else a.transpose()
    if method == "tilespgemm" and op == "aa":
        kwargs.setdefault("a_tiled", tiled_of(a))
        kwargs.setdefault("b_tiled", tiled_of(a))
    result = get_algorithm(method)(a, b, **kwargs)
    if cache:
        _RUN_CACHE[key] = result
    return result


#: Host-memory budget for one baseline's transient expansion buffers.  A
#: run whose estimated working set exceeds this is reported as failed
#: (0 GFlops), the same convention the paper uses for device OOM.
HOST_EXPANSION_BUDGET_BYTES: float = float(
    os.environ.get("REPRO_HOST_BUDGET_BYTES", 3.5e9)
)

#: Approximate transient host bytes per intermediate product for the
#: expansion-based baselines (index+value arrays, sort keys, argsort).
_EXPANSION_BYTES_PER_PRODUCT = {
    "bhsparse_esc": 60.0,
    "nsparse_hash": 55.0,
    "speck": 45.0,
    # cuSPARSE's workspace also scales with the intermediate products (the
    # paper observes it OOM on webbase-1M's A A^T even with 24 GB); the
    # dense-row stand-in is charged the same class of budget.
    "cusparse_spa": 55.0,
}


def expansion_would_exceed_budget(method: str, a: CSRMatrix, b: CSRMatrix) -> bool:
    """Whether running ``method`` would blow the host expansion budget."""
    from repro.baselines.base import flops_of_product

    per_product = _EXPANSION_BYTES_PER_PRODUCT.get(method)
    if per_product is None:
        return False
    products = flops_of_product(a, b) / 2
    return products * per_product > HOST_EXPANSION_BUDGET_BYTES


def save_and_print(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n[saved to benchmarks/results/{name}.txt]")


def save_series_json(name: str, series, *, suite: str | None = None,
                     label: str | None = None, warmup: int = 0,
                     repeats: int = 1, seed: int = 0) -> Path:
    """Persist a list of ``repro.bench`` series dicts next to the .txt table.

    The resulting ``benchmarks/results/<name>.json`` is a full
    schema-versioned document (``repro.bench/1``), the shape
    ``python -m repro bench run`` writes, readable with
    :func:`repro.bench.schema.load_document`.
    """
    from repro.bench import schema

    doc = schema.new_document(
        label=label or name, suite=suite or name,
        warmup=warmup, repeats=repeats, seed=seed,
    )
    doc["series"] = list(series)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    schema.write_document(doc, path)
    print(f"[saved to benchmarks/results/{name}.json]")
    return path


def fig6_matrix_cap() -> int | None:
    raw = os.environ.get("REPRO_BENCH_MAX_MATRICES", "")
    return int(raw) if raw else None


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR
