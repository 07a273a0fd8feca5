"""Step 2's two paths give the same bytes, and step 3 expands only scatter tiles.

Step 2 ORs every pair's product masks entry by entry when it is handed
the live entries of every pair (step 1's column pass lists them), and on
packed bit rows when it is not.  Forcing every pair onto one path, then
onto the other, must leave the masks, row pointers, tile offsets,
``symbolic_ops``, the per-pair product counts and the product itself
byte-equal.  Run under another backend with ``REPRO_BACKEND=<name>``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

import repro.core.pairs as pairs_module
import repro.core.step3 as step3_module
from repro.core import TileMatrix, tile_spgemm
from repro.core.pairs import enumerate_pairs_expand, live_entries
from repro.core.step2 import step2_symbolic
from repro.formats.coo import COOMatrix
from repro.matrices.generators import banded
from tests.conftest import random_csr
from tests.corpus import CORPUS
from tests.test_step3_golden import tile_digest

_PATHS = ("packed", "entry")


def _step2(a, b, path):
    """Step 2 over the reference join's pairs, every pair on ``path``."""
    pairs = enumerate_pairs_expand(a, b)
    live = live_entries(a, b, pairs) if path == "entry" else None
    return step2_symbolic(a, b, pairs, live=live)


def _multiply(a, b, path, **kwargs):
    """``tile_spgemm`` with step 1's join forced, so step 2 takes ``path``."""
    with mock.patch.object(pairs_module, "_use_column_join",
                           lambda num_matched, num_entries: path == "entry"):
        return tile_spgemm(a, b, **kwargs)


def _assert_symbolic_equal(x, y):
    for field in ("mask", "rowptr", "tilennz", "pair_products"):
        got, want = getattr(x, field), getattr(y, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert np.array_equal(got, want), field
    assert x.symbolic_ops == y.symbolic_ops


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_paths_agree(name):
    case = CORPUS[name]
    a, b = TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b)
    syms, digests = {}, {}
    for path in _PATHS:
        with np.errstate(over="ignore", invalid="ignore"):
            syms[path] = _step2(a, b, path)
            digests[path] = tile_digest(_multiply(a, b, path, **case.kwargs).c)
    _assert_symbolic_equal(syms["packed"], syms["entry"])
    assert digests["packed"] == digests["entry"]


def _tiles_with_nnz(counts, seed):
    """A 48x48 ``A`` whose nine tiles hold ``counts`` nonzeros each."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for t, k in enumerate(counts):
        ti, tj = divmod(t, 3)
        pos = rng.choice(256, size=k, replace=False)
        rows.append(ti * 16 + pos // 16)
        cols.append(tj * 16 + pos % 16)
    row, col = np.concatenate(rows), np.concatenate(cols)
    val = rng.standard_normal(row.size)
    return TileMatrix.from_csr(COOMatrix((48, 48), row, col, val).to_csr())


@pytest.mark.parametrize("seed", range(4))
def test_random_tiles_paths_agree(seed):
    # Tiles from one nonzero to nearly full, against a random B.
    rng = np.random.default_rng(seed)
    a = _tiles_with_nnz(rng.integers(1, 250, size=9), seed)
    b = TileMatrix.from_csr(random_csr(48, 48, 0.15, seed=100 + seed))
    packed, entry = _step2(a, b, "packed"), _step2(a, b, "entry")
    _assert_symbolic_equal(packed, entry)
    assert tile_digest(_multiply(a, b, "packed").c) == tile_digest(_multiply(a, b, "entry").c)
    # The per-pair products are the expanded entries' products.
    pairs = enumerate_pairs_expand(a, b)
    assert np.array_equal(packed.pair_products, np.diff(live_entries(a, b, pairs).csum))


def test_step3_expands_only_scatter_tiles():
    # A dense band in the top-left quarter (dense-path tiles) beside a
    # sparse random remainder (scatter-path tiles).
    band = banded(64, 20, fill=0.9, seed=5).to_csr().to_dense()
    dense = random_csr(160, 160, 0.02, seed=6).to_dense()
    dense[:64, :64] = band
    row, col = np.nonzero(dense)
    a = TileMatrix.from_csr(COOMatrix(dense.shape, row, col, dense[row, col]).to_csr())

    expanded = []

    def spy(*args, **kwargs):
        expanded.append(live_entries(*args, **kwargs))
        return expanded[-1]

    with mock.patch.object(step3_module, "live_entries", spy):
        res = tile_spgemm(a, a)
    pairs = res.pairs
    full = live_entries(a, a, pairs)
    tiles = step3_module._dense_path_tiles(a, a, pairs, full.csum, None, np.float64)
    scatter_tile = np.ones(pairs.num_c_tiles, dtype=bool)
    scatter_tile[tiles] = False
    tile_products = np.diff(full.csum[pairs.pair_ptr])
    assert tiles.size and np.any(scatter_tile & (tile_products > 0))

    assert len(expanded) == 1
    (got,) = expanded
    keep = np.repeat(scatter_tile, np.diff(pairs.pair_ptr))[full.pair_of]
    for field in ("a_idx", "pair_of", "row_len"):
        assert np.array_equal(getattr(got, field), getattr(full, field)[keep]), field
    assert 0 < got.a_idx.size < full.a_idx.size
