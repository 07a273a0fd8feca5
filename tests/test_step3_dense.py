"""Step 3's dense-tile path: which tiles take it, and that it moves no byte.

Step 3 accumulates a C tile either by scattering its products one by one
or, when its products fill enough of ``pairs * T**3``, as dense ``T x T``
rank-1 updates.  The golden digests pin the bytes; these tests pin the
selection, so the golden ``dense`` rows cannot pass without the dense path
running:

* the path runs (a ``step3.dense`` span with ``tiles > 0``) on a full tile
  and, under ``force_accumulator="dense"``, on every tile with products;
* tiles over the chunk budget take it too, with the bytes of the scatter
  path's split tiles;
* a tile just above ``DENSE_MIN_FILL`` takes it and one just below does
  not, with equal bytes;
* tiles that the paper's ``tnnz`` rule calls dense but whose product fill
  is low, the fp16 value mode and non-finite operands stay on the scatter
  path;
* the kernel itself equals a plain per-(pair, column) loop by bytes:
  its einsum writes ``+0.0`` where the product is ``-0.0``, which a sum
  begun at ``+0.0`` cannot tell apart;
* over block-dense matrices with signed zeros, stored zeros, subnormals
  and ``1e±300`` magnitudes, the adaptive and all-dense bytes equal the
  all-scatter bytes.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.step3 as step3_module
from repro.core import TileMatrix, tile_spgemm
from repro.core.pairs import enumerate_pairs_expand, live_entries
from repro.core.step2 import step2_symbolic
from repro.core.step3 import DENSE_MIN_FILL, _accumulate_dense, step3_numeric
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.matrices import generators
from repro.obs import Tracer, obs_context
from tests.corpus import CORPUS
from tests.test_step3_golden import tile_digest


def _traced(a, b, **kwargs):
    """``tile_spgemm(a, b)`` and the tile count of its dense path (0 if none)."""
    tracer = Tracer()
    with obs_context(tracer=tracer), np.errstate(all="ignore"):
        res = tile_spgemm(a, b, **kwargs)
    spans = tracer.find("step3.dense")
    assert len(spans) <= 1
    return res, (spans[0].args["tiles"] if spans else 0)


def _case(name):
    case = CORPUS[name]
    return TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b), case.kwargs


def _full(n: int, seed: int) -> CSRMatrix:
    return CSRMatrix.from_dense(np.random.default_rng(seed).uniform(0.5, 1.5, (n, n)))


def test_full_tile_takes_dense_path():
    a, b, kwargs = _case("dense_16x16_offset_boundary")
    assert _traced(a, b, **kwargs)[1] == 1
    _, sparse_tiles = _traced(a, b, force_accumulator="sparse", **kwargs)
    assert sparse_tiles == 0


def test_force_dense_takes_every_tile_with_products():
    a, b, kwargs = _case("ragged_17x19")
    res, tiles = _traced(a, b, force_accumulator="dense", **kwargs)
    products = np.asarray(res.stats["products_per_tile"])
    assert tiles == np.count_nonzero(products) > 0
    # The adaptive choice leaves these sparse tiles on the scatter path.
    assert _traced(a, b, **kwargs)[1] == 0
    sparse, _ = _traced(a, b, force_accumulator="sparse", **kwargs)
    assert tile_digest(res.c) == tile_digest(sparse.c)


def test_paper_dense_tiles_with_low_fill_stay_on_scatter():
    # conf5-like: every C tile is full (the paper's rule marks it dense),
    # but each of its pairs makes only ~3 % of T**3 products.
    m = TileMatrix.from_csr(generators.clustered_columns(448, 39, 224, seed=6).to_csr())
    res, tiles = _traced(m, m)
    st = res.stats
    assert st["dense_tiles"] > 0.9 * st["num_c_tiles"]
    fill = np.asarray(st["products_per_tile"]) / (np.asarray(st["pairs_per_tile"]) * 16**3)
    assert fill.max() < DENSE_MIN_FILL
    assert tiles == 0


@pytest.mark.parametrize("above", [True, False])
def test_fill_cut_picks_the_path(above):
    # One pair: a full A tile times a B tile of m entries makes 16 * m
    # products, a fill of m / 256.
    T = 16
    m = int(np.ceil(DENSE_MIN_FILL * T * T)) - (0 if above else 1)
    rng = np.random.default_rng(17)
    a = TileMatrix.from_csr(CSRMatrix.from_dense(rng.uniform(-2, 2, (T, T))))
    b_dense = np.zeros((T, T))
    b_dense.flat[rng.choice(T * T, m, replace=False)] = rng.uniform(-2, 2, m)
    b = TileMatrix.from_csr(CSRMatrix.from_dense(b_dense))
    tracer = Tracer()
    with obs_context(tracer=tracer):
        res = tile_spgemm(a, b)
    assert (res.stats["products_per_tile"][0] >= DENSE_MIN_FILL * T**3) == above
    spans = tracer.find("step3.dense")
    if above:
        assert [sp.args["tiles"] for sp in spans] == [1]
    else:
        assert spans == []
    sparse, _ = _traced(a, b, force_accumulator="sparse")
    assert tile_digest(res.c) == tile_digest(sparse.c)


def _stored(tiles, seed, positive_rows=()):
    """A COO operand on the nonempty 16x16 tiles of ``tiles`` and its dense
    twin.  Stored values are signed, a quarter of them from :data:`SPECIAL`
    (no overflowing magnitudes); row 3 stores ``-0.0`` at every column of
    its tiles, and the rows ``positive_rows`` store magnitudes only."""
    T = 16
    rng = np.random.default_rng(seed)
    shape = (T * len(tiles), T * len(tiles[0]))
    on = np.kron(np.asarray(tiles, dtype=bool), np.ones((T, T), dtype=bool))
    on &= rng.random(shape) < 0.45
    on[3] = np.repeat(np.asarray(tiles[0], dtype=bool), T)
    rows, cols = np.nonzero(on)
    vals = rng.uniform(-2, 2, rows.size)
    swap = rng.random(rows.size) < 0.25
    vals[swap] = rng.choice(SPECIAL[np.abs(SPECIAL) < 1e100], int(swap.sum()))
    vals[rows == 3] = -0.0
    unsigned = np.isin(rows, positive_rows)
    vals[unsigned] = np.abs(vals[unsigned])
    dense = np.zeros(shape)
    dense[rows, cols] = vals
    return TileMatrix.from_coo(COOMatrix(shape, rows, cols, vals)), dense


@pytest.mark.parametrize("group", [2, step3_module.DENSE_GROUP_TILES])
def test_dense_kernel_matches_a_plain_loop(group):
    T = 16
    # C tiles have 1 to 3 pairs.  B is unsigned on the rows that A's row 3
    # stores (its tile rows 0 and 2), so every term of C's row 3, padding
    # included, is -0.0.
    a, a_dense = _stored([[1, 0, 1, 0], [1, 1, 1, 1], [0, 1, 1, 0]], seed=5)
    row3 = np.flatnonzero(np.signbit(a_dense[3]))
    b, b_dense = _stored([[1, 1, 0], [1, 0, 1], [1, 1, 1], [0, 1, 1]], seed=6,
                         positive_rows=row3)
    assert row3.size and not np.signbit(b_dense[row3]).any()
    pairs = enumerate_pairs_expand(a, b)
    sym = step2_symbolic(a, b, pairs, live=live_entries(a, b, pairs))
    pair_csum = np.zeros(pairs.num_pairs + 1, dtype=np.int64)
    np.cumsum(sym.pair_products, out=pair_csum[1:])
    tiles = np.flatnonzero(np.diff(pair_csum[pairs.pair_ptr]))
    assert len(set(np.diff(pairs.pair_ptr)[tiles])) > 1
    got = np.zeros(sym.nnz)
    with mock.patch.object(step3_module, "DENSE_GROUP_TILES", group):
        _accumulate_dense(a, b, pairs, sym, pair_csum, tiles, got)

    want = np.zeros(sym.nnz)
    for s in tiles:
        i, j = pairs.c_tilerow[s], pairs.c_tilecol[s]
        acc = np.zeros((T, T))
        for p in range(pairs.pair_ptr[s], pairs.pair_ptr[s + 1]):
            k = a.tilecolidx[pairs.pair_a[p]]
            at = a_dense[i * T:(i + 1) * T, k * T:(k + 1) * T]
            bt = b_dense[k * T:(k + 1) * T, j * T:(j + 1) * T]
            for c in range(T):
                acc += np.multiply.outer(at[:, c], bt[c])
        in_mask = (sym.mask[s][:, None] >> np.arange(T, dtype=sym.mask.dtype)) & 1 == 1
        want[sym.tilennz[s]:sym.tilennz[s + 1]] = acc[in_mask]
    assert got.tobytes() == want.tobytes()
    # Row 3 of C receives only -0.0 products; its values read +0.0.
    in_row3 = np.zeros(sym.nnz, dtype=bool)
    for s in tiles[pairs.c_tilerow[tiles] == 0]:
        lo = sym.tilennz[s] + sym.rowptr[s, 3]
        in_row3[lo:lo + np.bitwise_count(sym.mask[s, 3])] = True
    assert in_row3.any()
    assert (got[in_row3] == 0).all() and not np.signbit(got[in_row3]).any()
    assert (got != 0).any() and np.signbit(got).any()


def test_tiles_over_the_chunk_budget_take_dense_path():
    # Every C tile of a full 48x48 matrix has 3 pairs of 4096 products.
    m = TileMatrix.from_csr(_full(48, seed=1))
    pairs = enumerate_pairs_expand(m, m)
    live = live_entries(m, m, pairs)
    sym = step2_symbolic(m, m, pairs, live=live)

    def run(budget, acc):
        tracer = Tracer()
        with obs_context(tracer=tracer), mock.patch.object(step3_module, "CHUNK_PRODUCTS", budget):
            res = step3_numeric(m, m, pairs, sym, force_accumulator=acc, live=live)
        spans = tracer.find("step3.dense")
        return res.val.tobytes(), (spans[0].args["tiles"] if spans else 0)

    whole = run(3 * 4096, "sparse")[0]
    # 2 * 4096 splits every tile after its second pair, 64 after every pair.
    for budget in (3 * 4096, 3 * 4096 - 1, 2 * 4096, 64):
        assert run(budget, "sparse") == (whole, 0), budget
        for acc in (None, "dense"):
            assert run(budget, acc) == (whole, 9), (budget, acc)


@pytest.mark.parametrize("acc", [None, "dense"])
def test_fp16_value_mode_stays_on_scatter(acc):
    a, b, kwargs = _case("fp16_value_mode")
    assert kwargs["value_dtype"] == np.float16
    assert _traced(a, b, force_accumulator=acc, **kwargs)[1] == 0


@pytest.mark.parametrize("acc", [None, "dense"])
def test_nonfinite_operands_stay_on_scatter(acc):
    a, b, kwargs = _case("nonfinite_dense_tile")
    res, tiles = _traced(a, b, force_accumulator=acc, **kwargs)
    assert tiles == 0
    c = res.c.to_dense()
    # Row 2 of A holds inf, but B's row 5 misses columns 3 and 9: only
    # stored products reach them, so they stay finite (a dense tile
    # product would add inf * 0 = nan).
    assert np.isinf(c[2, 0])
    assert np.isfinite(c[2, [3, 9]]).all()
    assert np.isnan(c[7, 1]) and np.isfinite(c[7, 0])


#: Values that stress a summation: signed and stored zeros, subnormals,
#: magnitudes whose products overflow or underflow.
SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, -1e-300, 1e300, -1e300, 1.0, -3.25]
)


def _stress_matrix(n: int, fill: float, special: float, zero_rows: float,
                   signed: bool, seed: int) -> CSRMatrix:
    """``n x n``, each entry stored with probability ``fill``.

    A ``special`` share of the stored values comes from :data:`SPECIAL`,
    and a ``zero_rows`` share of the rows stores ``-0.0`` only: with
    unsigned other values, their C rows receive only ``-0.0`` products.
    """
    rng = np.random.default_rng(seed)
    rows, cols = np.nonzero(rng.random((n, n)) < fill)
    vals = rng.uniform(0.5, 2.0, rows.size)
    if signed:
        vals *= rng.choice([-1.0, 1.0], rows.size)
    swap = rng.random(rows.size) < special
    vals[swap] = rng.choice(SPECIAL, int(swap.sum()))
    vals[(rng.random(n) < zero_rows)[rows]] = -0.0
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CSRMatrix((n, n), indptr, cols.astype(np.int64), vals)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(16, 40),
    fill=st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
    special=st.floats(0.0, 0.5),
    zero_rows=st.floats(0.0, 0.3),
    signed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# Full rows of -0.0 times positive columns: C entries whose every term,
# padding included, is -0.0 — the sum must still start at +0.0.
@example(n=32, fill=1.0, special=0.0, zero_rows=0.3, signed=False, seed=3)
def test_dense_path_bytes_equal_scatter_bytes(n, fill, special, zero_rows, signed, seed):
    a = TileMatrix.from_csr(_stress_matrix(n, fill, special, zero_rows, signed, seed))
    b = TileMatrix.from_csr(_stress_matrix(n, fill, special, 0.0, signed, seed + 1))
    sparse, none = _traced(a, b, force_accumulator="sparse")
    assert none == 0
    for acc in (None, "dense"):
        res, tiles = _traced(a, b, force_accumulator=acc)
        assert tile_digest(res.c) == tile_digest(sparse.c), acc
    assert tiles > 0
