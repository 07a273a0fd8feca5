"""Shared fixtures: random sparse matrices, SciPy oracles, small suites."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats.csr import CSRMatrix


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_csr(
    nrows: int,
    ncols: int,
    density: float = 0.05,
    seed: int = 0,
    explicit_zeros: bool = False,
) -> CSRMatrix:
    """A random CSRMatrix built through SciPy (values in [-1, 1])."""
    rs = np.random.default_rng(seed)
    m = sp.random(nrows, ncols, density=density, random_state=rs, format="csr")
    m.data = rs.uniform(-1.0, 1.0, size=m.data.size)
    if explicit_zeros and m.data.size:
        zero_at = rs.integers(0, m.data.size, size=max(m.data.size // 10, 1))
        m.data[zero_at] = 0.0
    return CSRMatrix.from_scipy(m)


def scipy_product(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Oracle product via SciPy."""
    return CSRMatrix.from_scipy((a.to_scipy() @ b.to_scipy()).tocsr())


@pytest.fixture
def small_pair():
    """A compatible (A, B) pair of moderately sparse random matrices."""
    return random_csr(120, 90, 0.08, seed=7), random_csr(90, 140, 0.08, seed=8)


@pytest.fixture(params=[0, 1, 2, 3])
def random_square(request):
    """A selection of random square matrices of varied size/density."""
    n, d, s = [(60, 0.10, 11), (130, 0.05, 12), (257, 0.03, 13), (33, 0.30, 14)][
        request.param
    ]
    return random_csr(n, n, d, seed=s)


def planner_doc(planned_samples, static_samples):
    """A one-matrix ``planner``-suite bench document: ``m1`` timed under
    the planned method and one static configuration (``tilespgemm``)."""
    from repro.bench import schema

    doc = schema.new_document(label="t", suite="planner", warmup=0, repeats=3, seed=0)
    for method, samples in [
        ("tilespgemm_planned", planned_samples),
        ("tilespgemm", static_samples),
    ]:
        doc["series"].append(
            schema.make_series(
                matrix="m1",
                method=method,
                op="aa",
                wall_seconds=samples,
                n=10,
                nnz=10,
                nnz_c=10,
                flops=20,
            )
        )
    schema.validate_document(doc)
    return doc
