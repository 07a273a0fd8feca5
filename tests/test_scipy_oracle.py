"""scipy's ``csr @ csr`` is a byte-exact oracle for the fp64 corpus.

TileSpGEMM adds each destination's products in ascending ``k`` order,
starting from ``+0.0``: across tile pairs that is tile-column order, and
within a pair it is ``A``-tile column order.  scipy's ``csr_matmat``
adds in the same order when ``A``'s column indices are sorted, so the
two agree bit for bit — not merely within a tolerance.  scipy drops an
exact cancellation from its output, while the tiled ``C`` keeps every
position its masks set; each such extra position must hold ``+0.0``.

Every fp64 case of :data:`tests.corpus.CORPUS` runs through every entry
point: :func:`~repro.core.tile_spgemm` under each accumulator setting,
:func:`~repro.runtime.parallel.parallel_tile_spgemm` on one and on two
workers and under a memory budget one byte below the serial run's peak
(so its ranges re-split), one :class:`~repro.serve.SpGEMMService`
submission, and :func:`~repro.core.masked.masked_tile_spgemm`, compared
at its mask's positions only.  No case differs.  So does a dense strip
product whose one C tile has more products than step 3's chunk budget:
the tile is split across chunks, and its bytes stay scipy's.  The fp16
cases use different arithmetic and are not compared.  scipy is used here only,
never by ``repro.core``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import TileMatrix, masked_tile_spgemm, tile_spgemm
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.runtime.parallel import parallel_tile_spgemm
from repro.serve import SpGEMMService
from tests.corpus import CORPUS, corpus_names


def _resplit(a, b):
    """One worker under a budget one byte below the serial peak."""
    if a.num_tile_rows == 1:
        pytest.skip("one tile row cannot re-split")
    peak = tile_spgemm(a, b).alloc.peak_bytes
    res = parallel_tile_spgemm(a, b, workers=1, budget_bytes=peak - 1)
    assert res.stats["resplits"] > 0
    return res.c


def _served(a, b):
    async def drive():
        async with SpGEMMService(max_queue_depth=1, workers=2) as service:
            response = await service.submit(a, b)
        return response.result_or_raise()

    return asyncio.run(drive())


#: Each entry point as ``(a, b) -> C``.
ENTRY_POINTS = {
    "tile_spgemm": lambda a, b: tile_spgemm(a, b).c,
    "tile_spgemm[sparse]": lambda a, b: tile_spgemm(a, b, force_accumulator="sparse").c,
    "tile_spgemm[dense]": lambda a, b: tile_spgemm(a, b, force_accumulator="dense").c,
    "parallel_tile_spgemm[workers=1]": lambda a, b: parallel_tile_spgemm(a, b, workers=1).c,
    "parallel_tile_spgemm[workers=2]": lambda a, b: parallel_tile_spgemm(a, b, workers=2).c,
    "parallel_tile_spgemm[resplit]": _resplit,
    "serve": _served,
}


def _mask_keys(ref):
    """Flat positions of a mask over ``ref``'s shape: every other position
    of the reference product, and the diagonal, which reaches positions
    the product does not hold."""
    ncols = ref.shape[1]
    ref_key = np.sort(ref.row.astype(np.int64) * ncols + ref.col)
    diag = np.arange(min(ref.shape), dtype=np.int64)
    return np.union1d(ref_key[::2], diag * ncols + diag)


def _keyed(row, col, val, ncols):
    """Values sorted by flat position ``row * ncols + col``."""
    key = np.asarray(row, dtype=np.int64) * ncols + np.asarray(col, dtype=np.int64)
    order = np.argsort(key, kind="stable")
    return key[order], np.asarray(val, dtype=np.float64)[order]


def _assert_matches(c, ref, keep=None):
    """``C`` holds every position of ``ref`` with its bytes and ``+0.0``
    at every other position; with ``keep`` (flat positions), only those
    positions of ``ref`` are expected and ``C`` may hold no other."""
    ncols = ref.shape[1]
    ref_key, ref_val = _keyed(ref.row, ref.col, ref.data, ncols)
    c = c.to_coo()
    assert c.shape == ref.shape
    key, val = _keyed(c.row, c.col, c.val, ncols)
    assert np.unique(key).size == key.size, "one value per position"
    if keep is not None:
        assert np.isin(key, keep).all(), "C holds a position outside the mask"
        kept = np.isin(ref_key, keep)
        ref_key, ref_val = ref_key[kept], ref_val[kept]

    # Every position scipy keeps is in C, with the same bytes.
    at = np.searchsorted(key, ref_key)
    assert np.all(at < key.size) and np.array_equal(key[np.minimum(at, key.size - 1)], ref_key)
    assert val[at].tobytes() == ref_val.tobytes()

    # Every other position of C holds +0.0.
    rest = np.ones(key.size, dtype=bool)
    rest[at] = False
    assert val[rest].tobytes() == np.zeros(int(rest.sum())).tobytes()


def _reference(a, b):
    a_sp, b_sp = a.to_scipy(), b.to_scipy()
    assert a_sp.has_sorted_indices, "scipy's order needs sorted A indices"
    return (a_sp @ b_sp).tocoo()


FP64 = corpus_names(exclude_tags=("fp16",))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("name", FP64)
def test_matches_scipy_by_bytes(name, entry):
    case = CORPUS[name]
    ref = _reference(case.a, case.b)
    c = ENTRY_POINTS[entry](TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b))
    _assert_matches(c, ref)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("k", [65, 200])
def test_split_tile_matches_scipy_by_bytes(k, entry):
    # A dense 16 x 16k strip times a dense 16k x 16 strip: one C tile of
    # k * 4096 products, more than the default chunk budget (2^18).
    rng = np.random.default_rng(k)
    a = CSRMatrix.from_dense(rng.uniform(-1, 1, (16, 16 * k)))
    b = CSRMatrix.from_dense(rng.uniform(-1, 1, (16 * k, 16)))
    c = ENTRY_POINTS[entry](TileMatrix.from_csr(a), TileMatrix.from_csr(b))
    _assert_matches(c, _reference(a, b))


@pytest.mark.parametrize("name", FP64)
def test_masked_matches_scipy_at_the_mask(name):
    case = CORPUS[name]
    ref = _reference(case.a, case.b)
    keep = _mask_keys(ref)
    ncols = ref.shape[1]
    mask = COOMatrix(ref.shape, keep // ncols, keep % ncols, np.ones(keep.size)).to_csr()
    res = masked_tile_spgemm(
        TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b), TileMatrix.from_csr(mask)
    )
    _assert_matches(res.c, ref, keep)
