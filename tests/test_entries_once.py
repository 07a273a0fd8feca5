"""A multiply lists its live entries at most once.

Step 2 picks its path once per multiply: it ORs step 1's column-pass
entries, or every pair's packed bit rows after the filter join.  So the
filter join lists entries only in step 3, for its scatter tiles' pairs,
and a multiply that needs no list (every tile dense, or step 1's list
reused, also when some tiles take the dense path) calls ``live_entries``
not at all.  The spy replaces ``live_entries`` under every name a
``repro`` module imported it by.
"""

from __future__ import annotations

import sys

import numpy as np

import repro.core.pairs as pairs_module
import repro.core.step3 as step3_module
from repro.core import TileMatrix, tile_spgemm
from repro.core.pairs import live_entries
from repro.formats.coo import COOMatrix
from repro.matrices import generators as gen
from repro.obs import Tracer, obs_context
from tests.test_live_tiles import _cop_like
from tests.test_step3_golden import tile_digest


def _spy(monkeypatch):
    """Record ``(module, entries)`` for every ``live_entries`` call."""
    calls = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro.") and getattr(module, "live_entries", None) is live_entries:

            def spy(*args, _name=name, **kwargs):
                calls.append((_name, live_entries(*args, **kwargs)))
                return calls[-1][1]

            monkeypatch.setattr(module, "live_entries", spy)
    return calls


def _multiply(a):
    """``tile_spgemm(a, a)``, the join step 1 took and the names of its spans."""
    tracer = Tracer()
    with obs_context(tracer=tracer):
        res = tile_spgemm(a, a)
    (step1,) = [sp for sp in tracer.spans if sp.name == "step1"]
    return res, step1.args["join"], {sp.name for sp in tracer.spans}


def _dense_path_tiles(a, pairs, full):
    """The C tiles step 3 accumulates as dense tiles."""
    return step3_module._dense_path_tiles(a, a, pairs, full.csum, None, np.float64)


def _pwtk_like():
    """A half-full band: dense ``A`` tiles on the diagonal, sparse ones at
    the band's edge, dense-path ``C`` tiles and scatter tiles."""
    return TileMatrix.from_csr(gen.banded(480, 24, fill=0.5, seed=3).to_csr())


def test_filter_join_lists_scatter_tiles_once(monkeypatch):
    a = _pwtk_like()
    a_nnz = a.tile_nnz_counts()
    assert a_nnz.min() < 32 <= a_nnz.max()  # sparse-A and dense-A pairs
    calls = _spy(monkeypatch)
    res, join, spans = _multiply(a)
    assert join == "filter"

    pairs = res.pairs
    full = live_entries(a, a, pairs)
    dense = _dense_path_tiles(a, pairs, full)
    scatter_tile = np.ones(pairs.num_c_tiles, dtype=bool)
    scatter_tile[dense] = False
    assert dense.size and scatter_tile.any()

    assert len(calls) == 1
    ((module, got),) = calls
    assert module == "repro.core.step3" and "step2.expand" not in spans
    keep = np.repeat(scatter_tile, np.diff(pairs.pair_ptr))[full.pair_of]
    for field in ("a_idx", "pair_of", "row_len"):
        assert np.array_equal(getattr(got, field), getattr(full, field)[keep]), field
    assert 0 < got.a_idx.size < full.a_idx.size


def test_all_dense_tiles_list_nothing(monkeypatch):
    a = TileMatrix.from_csr(gen.block_band(320, 16, block_bandwidth=1, seed=2).to_csr())
    calls = _spy(monkeypatch)
    res, join, spans = _multiply(a)
    assert join == "filter"
    assert calls == [] and "step2.expand" not in spans
    full = live_entries(a, a, res.pairs)
    assert _dense_path_tiles(a, res.pairs, full).size == res.pairs.num_c_tiles


def test_column_join_without_dense_tiles_lists_nothing(monkeypatch):
    a, _ = _cop_like()
    calls = _spy(monkeypatch)
    res, join, _ = _multiply(a)
    assert join == "column"
    assert res.stats["dense_tiles"] == 0 and res.stats["num_products"] > 0
    assert calls == []


def _cop_like_with_dense_block():
    """A permuted narrow band (column join) with a dense 64x64 block
    appended on the diagonal: 16 dense-path C tiles beside the scatter
    tiles."""
    band = gen.permute_symmetric(gen.banded(2000, 4, fill=0.95, seed=5), seed=5)
    rng = np.random.default_rng(5)
    block_row, block_col = np.divmod(np.arange(64 * 64), 64)
    coo = COOMatrix(
        (2064, 2064),
        np.r_[band.row, 2000 + block_row],
        np.r_[band.col, 2000 + block_col],
        np.r_[band.val, rng.uniform(-1, 1, 64 * 64)],
    )
    return TileMatrix.from_csr(coo.to_csr())


def test_column_join_with_dense_tiles_lists_once(monkeypatch):
    a = _cop_like_with_dense_block()
    with monkeypatch.context() as m:  # the filter join lists entries in step 3
        m.setattr(pairs_module, "_use_column_join", lambda num_matched, num_entries: False)
        filtered = tile_digest(tile_spgemm(a, a).c)
    calls = _spy(monkeypatch)
    tracer = Tracer()
    with obs_context(tracer=tracer):
        res = tile_spgemm(a, a)
    (step1,) = tracer.find("step1")
    (dense,) = tracer.find("step3.dense")
    assert step1.args["join"] == "column"
    assert dense.args["tiles"] == 16 and res.stats["num_products"] > 0
    # Step 1's list is the only one: step 3 takes its scatter tiles' pairs from it.
    assert calls == []
    assert tile_digest(res.c) == filtered
    assert tile_digest(tile_spgemm(a, a, force_accumulator="sparse").c) == filtered

