"""scipy's ``csr @ csr`` is a byte-exact oracle for the fp64 corpus.

TileSpGEMM adds each destination's products in ascending ``k`` order,
starting from ``+0.0``: across tile pairs that is tile-column order, and
within a pair it is ``A``-tile column order.  scipy's ``csr_matmat``
adds in the same order when ``A``'s column indices are sorted, so the
two agree bit for bit — not merely within a tolerance.  scipy drops an
exact cancellation from its output, while the tiled ``C`` keeps every
position its masks set; each such extra position must hold ``+0.0``.

Every fp64 case of :data:`tests.corpus.CORPUS` runs through
:func:`~repro.core.tile_spgemm` under each accumulator setting and
through :func:`~repro.runtime.parallel.parallel_tile_spgemm` on two
workers; no case differs.  The fp16 cases use different arithmetic and
are not compared.  scipy is used here only, never by ``repro.core``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TileMatrix, tile_spgemm
from repro.runtime.parallel import parallel_tile_spgemm
from tests.corpus import CORPUS, corpus_names

ENTRY_POINTS = {
    "tile_spgemm": lambda a, b: tile_spgemm(a, b),
    "tile_spgemm[sparse]": lambda a, b: tile_spgemm(a, b, force_accumulator="sparse"),
    "tile_spgemm[dense]": lambda a, b: tile_spgemm(a, b, force_accumulator="dense"),
    "parallel_tile_spgemm[workers=2]": lambda a, b: parallel_tile_spgemm(a, b, workers=2),
}


def _keyed(row, col, val, ncols):
    """Values sorted by flat position ``row * ncols + col``."""
    key = np.asarray(row, dtype=np.int64) * ncols + np.asarray(col, dtype=np.int64)
    order = np.argsort(key, kind="stable")
    return key[order], np.asarray(val, dtype=np.float64)[order]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("name", corpus_names(exclude_tags=("fp16",)))
def test_matches_scipy_by_bytes(name, entry):
    case = CORPUS[name]
    a_sp, b_sp = case.a.to_scipy(), case.b.to_scipy()
    assert a_sp.has_sorted_indices, "scipy's order needs sorted A indices"
    ref = (a_sp @ b_sp).tocoo()
    ncols = ref.shape[1]
    ref_key, ref_val = _keyed(ref.row, ref.col, ref.data, ncols)

    res = ENTRY_POINTS[entry](TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b))
    c = res.c.to_coo()
    assert c.shape == ref.shape
    key, val = _keyed(c.row, c.col, c.val, ncols)
    assert np.unique(key).size == key.size, "one value per position"

    # Every position scipy keeps is in C, with the same bytes.
    at = np.searchsorted(key, ref_key)
    assert np.all(at < key.size) and np.array_equal(key[np.minimum(at, key.size - 1)], ref_key)
    assert val[at].tobytes() == ref_val.tobytes()

    # Every other position of C holds +0.0.
    rest = np.ones(key.size, dtype=bool)
    rest[at] = False
    assert val[rest].tobytes() == np.zeros(int(rest.sum())).tobytes()
