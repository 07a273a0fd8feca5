"""Property-based tests: SpGEMM correctness and algebraic identities.

These drive every registered method (minus the half-precision tSparse
mode) against SciPy on hypothesis-generated matrices, and check the
algebraic identities that any SpGEMM must satisfy.

The backend-parametrised properties at the bottom sweep every available
kernel backend (:mod:`repro.backend`) through the serial, chunked and
2-worker parallel execution paths; a hypothesis-free seeded-fuzz loop
covers the same cross product on fixed seeds so CI cost stays bounded.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import list_backends
from repro.baselines import get_algorithm
from repro.core import TileMatrix, tile_spgemm
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from tests.conftest import random_csr, scipy_product
from tests.corpus import CORPUS, corpus_names

# Strategy: a small sparse matrix as (shape, entries).
VALUES = st.sampled_from([1.0, -1.0, 0.5, 2.0, -3.25])


@st.composite
def sparse_matrix(draw, max_dim=40, max_nnz=60):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(
        st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz))
    vals = draw(st.lists(VALUES, min_size=nnz, max_size=nnz))
    return COOMatrix(
        (nrows, ncols),
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals),
    ).to_csr()


@st.composite
def matrix_pair(draw, max_dim=36):
    n = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    a = draw(sparse_matrix_fixed(n, k))
    b = draw(sparse_matrix_fixed(k, m))
    return a, b


@st.composite
def sparse_matrix_fixed(draw, nrows, ncols, max_nnz=50):
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz))
    vals = draw(st.lists(VALUES, min_size=nnz, max_size=nnz))
    return COOMatrix(
        (nrows, ncols),
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals),
    ).to_csr()


@settings(max_examples=40, deadline=None)
@given(matrix_pair())
def test_tilespgemm_matches_dense(pair):
    a, b = pair
    res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(b))
    assert np.allclose(res.c.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(matrix_pair(max_dim=24))
@pytest.mark.parametrize(
    "method", ["cusparse_spa", "bhsparse_esc", "nsparse_hash", "speck", "heap_merge"]
)
def test_baselines_match_dense(method, pair):
    a, b = pair
    res = get_algorithm(method)(a, b)
    assert np.allclose(res.c.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(sparse_matrix(max_dim=30))
def test_identity_neutrality(a):
    left = tile_spgemm(
        TileMatrix.from_csr(CSRMatrix.identity(a.shape[0])), TileMatrix.from_csr(a)
    ).c.to_csr()
    right = tile_spgemm(
        TileMatrix.from_csr(a), TileMatrix.from_csr(CSRMatrix.identity(a.shape[1]))
    ).c.to_csr()
    assert left.allclose(a)
    assert right.allclose(a)


@settings(max_examples=25, deadline=None)
@given(matrix_pair(max_dim=28))
def test_transpose_identity(pair):
    """(A B)^T == B^T A^T — exercises both tile layouts and the CSC view."""
    a, b = pair
    ab_t = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(b)).c.to_csr().transpose()
    bt_at = tile_spgemm(
        TileMatrix.from_csr(b.transpose()), TileMatrix.from_csr(a.transpose())
    ).c.to_csr()
    assert ab_t.allclose(bt_at)


@settings(max_examples=20, deadline=None)
@given(matrix_pair(max_dim=20))
def test_scalar_homogeneity(pair):
    """(2A) B == 2 (A B)."""
    a, b = pair
    doubled = CSRMatrix(a.shape, a.indptr, a.indices, a.val * 2.0)
    c1 = tile_spgemm(TileMatrix.from_csr(doubled), TileMatrix.from_csr(b)).c.to_csr()
    c2 = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(b)).c.to_csr()
    assert np.allclose(c1.to_dense(), 2.0 * c2.to_dense())


@settings(max_examples=20, deadline=None)
@given(sparse_matrix(max_dim=26))
def test_output_is_valid_tile_matrix(a):
    res = tile_spgemm(TileMatrix.from_csr(a), TileMatrix.from_csr(a.transpose()))
    res.c.drop_empty_tiles().validate()


@settings(max_examples=20, deadline=None)
@given(matrix_pair(max_dim=24))
def test_methods_agree_pairwise(pair):
    a, b = pair
    c_tile = get_algorithm("tilespgemm")(a, b).c
    c_hash = get_algorithm("nsparse_hash")(a, b).c
    c_esc = get_algorithm("bhsparse_esc")(a, b).c
    assert c_tile.allclose(c_hash)
    assert c_hash.allclose(c_esc)


# ---------------------------------------------------------------------------
# Cross-backend properties
# ---------------------------------------------------------------------------

BACKENDS = list_backends()


def _assert_backend_bytes_identical(c_ref, c_got, context=""):
    for name in (
        "tileptr",
        "tilecolidx",
        "tilennz",
        "rowptr",
        "rowidx",
        "colidx",
        "val",
        "mask",
    ):
        ref, got = getattr(c_ref, name), getattr(c_got, name)
        assert ref.dtype == got.dtype, f"{context}{name}"
        assert ref.tobytes() == got.tobytes(), f"{context}{name}"


def _execution_paths(backend):
    """The three execution paths each backend must agree across."""
    from repro.runtime.chunked import chunked_tile_spgemm
    from repro.runtime.parallel import parallel_tile_spgemm

    return {
        "serial": lambda at, bt: tile_spgemm(at, bt, backend=backend),
        "chunked": lambda at, bt: chunked_tile_spgemm(
            at, bt, num_batches=3, backend=backend
        ),
        "par2_thread": lambda at, bt: parallel_tile_spgemm(
            at, bt, workers=2, backend=backend
        ),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=10, deadline=None)
@given(matrix_pair(max_dim=20))
def test_backend_matches_dense_all_paths(backend, pair):
    """Every backend, through serial/chunked/parallel, matches dense —
    and all three paths are byte-identical to each other."""
    a, b = pair
    at, bt = TileMatrix.from_csr(a), TileMatrix.from_csr(b)
    dense = a.to_dense() @ b.to_dense()
    results = {name: run(at, bt) for name, run in _execution_paths(backend).items()}
    for name, res in results.items():
        assert np.allclose(res.c.to_dense(), dense, atol=1e-10), name
    serial = results["serial"]
    for name in ("chunked", "par2_thread"):
        _assert_backend_bytes_identical(
            serial.c, results[name].c, context=f"{backend}/{name}:"
        )


@pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "numpy"])
@pytest.mark.parametrize("seed", [601, 602, 603, 604, 605, 606])
def test_backend_seeded_fuzz_byte_identity(backend, seed):
    """Hypothesis-free fuzz loop: fixed seeds, dims <= 64, every
    non-reference backend byte-identical to numpy on all
    three paths.  Capped at 6 seeds so the pure-Python oracle stays
    CI-affordable."""
    rs = np.random.default_rng(seed)
    n, k, m = (int(rs.integers(1, 65)) for _ in range(3))
    density = float(rs.uniform(0.02, 0.25))
    a = random_csr(n, k, density, seed=seed * 7 + 1)
    b = random_csr(k, m, density, seed=seed * 7 + 2)
    at, bt = TileMatrix.from_csr(a), TileMatrix.from_csr(b)
    ref = tile_spgemm(at, bt, backend="numpy")
    np.testing.assert_allclose(
        ref.c.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-10
    )
    for name, run in _execution_paths(backend).items():
        got = run(at, bt)
        assert got.stats["backend"] == backend, name
        _assert_backend_bytes_identical(ref.c, got.c, context=f"{name}:")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "case_name", corpus_names(exclude_tags=("fp16", "stress", "nonfinite"))
)
def test_corpus_invariants_every_backend(backend, case_name):
    """Shared-corpus sweep: every backend produces a structurally valid
    result whose dense form matches the reference product."""
    case = CORPUS[case_name]
    at = TileMatrix.from_csr(case.a)
    bt = TileMatrix.from_csr(case.b)
    res = tile_spgemm(at, bt, backend=backend, **case.kwargs)
    res.c.validate()
    np.testing.assert_allclose(
        res.c.to_dense(), case.a.to_dense() @ case.b.to_dense(), atol=1e-9
    )
