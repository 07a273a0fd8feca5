"""The driver's tile-pair join against the reference join.

``enumerate_live_pairs`` (step 1 of ``tile_spgemm``) counts candidate
tiles without sorting every pair and holds only the live pairs;
``enumerate_pairs_expand`` sorts and holds every matched pair.  Their
candidate tiles and per-tile statistics must be equal, and the driver's
pairs must be the reference pairs filtered by liveness, in the same
order.  Step 3 must still pick its dense-path tiles by the matched-pair
count, and a masked run must report the paper's statistics.
"""

from __future__ import annotations

import inspect
from unittest import mock

import numpy as np
import pytest

import repro.core.pairs as pairs_module
import repro.core.step3 as step3_module
from repro.core import TileMatrix, masked_tile_spgemm, tile_spgemm
from repro.core.pairs import enumerate_live_pairs, enumerate_pairs_expand, live_entries
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from tests.conftest import random_csr
from tests.corpus import CORPUS
from tests.test_step3_golden import tile_digest
from tests.test_warp_reference import _hypersparse

T = 16


def _operands(name: str):
    if name == "hypersparse":
        a, b, _ = _hypersparse()
        return a, b
    if name == "random":
        return (TileMatrix.from_csr(random_csr(130, 110, 0.04, seed=61)),
                TileMatrix.from_csr(random_csr(110, 150, 0.04, seed=62)))
    case = CORPUS[name]
    return TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b)


#: How the driver's join groups pairs: its defaults; a bincount in a
#: block per tile row; the sort it falls back to on a sparse grid.
_MODES = {
    "default": {},
    "count_per_row": {"_COUNT_CELLS_PER_PAIR": 10**9, "_JOIN_BLOCK_PAIRS": 1},
    "sort": {"_COUNT_CELLS_PER_PAIR": 0},
}


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("name", sorted(CORPUS) + ["hypersparse", "random"])
def test_live_join_is_the_reference_filtered_by_liveness(name, mode, monkeypatch):
    for attr, value in _MODES[mode].items():
        monkeypatch.setattr(pairs_module, attr, value)
    a, b = _operands(name)
    ref = enumerate_pairs_expand(a, b)
    got = enumerate_live_pairs(a, b)

    for field in ("c_tilerow", "c_tilecol", "len_a", "len_b", "matched", "matched_a_nnz"):
        assert np.array_equal(getattr(got, field), getattr(ref, field)), field
        assert getattr(got, field).dtype == np.int64, field
    assert np.array_equal(got.matched, np.diff(ref.pair_ptr))
    # symbolic_ops: one mask OR per (matched pair, A-tile nonzero).
    a_nnz = a.tile_nnz_counts()[ref.pair_a]
    per_tile = [a_nnz[lo:hi].sum() for lo, hi in zip(ref.pair_ptr[:-1], ref.pair_ptr[1:])]
    assert got.matched_a_nnz.tolist() == per_tile

    # A pair is live when it has a live entry: an A nonzero whose B row is nonempty.
    live = np.diff(live_entries(a, b, ref).entry_ptr) > 0
    assert np.array_equal(got.pair_a, ref.pair_a[live])
    assert np.array_equal(got.pair_b, ref.pair_b[live])
    held_before = np.r_[0, np.cumsum(live)]
    assert np.array_equal(got.pair_ptr, held_before[ref.pair_ptr])
    if name == "hypersparse":
        assert live.mean() < 0.2  # else the case drops too little to check


def test_modes_take_their_paths(monkeypatch):
    """Each mode runs the grouping it names (else the test above proves less)."""
    a, b = _operands("moderate_random")
    calls = []
    real = pairs_module._group

    def spy(*args):
        calls.append(args[0].size)
        return real(*args)

    monkeypatch.setattr(pairs_module, "_group", spy)
    for mode, sorts in (("count_per_row", False), ("sort", True)):
        with monkeypatch.context() as m:
            for attr, value in _MODES[mode].items():
                m.setattr(pairs_module, attr, value)
            calls.clear()
            enumerate_live_pairs(a, b)
            assert bool(calls) == sorts, mode


def _dead_pair_trap():
    """Operands whose C tile (0, 0) is dense over its live pair only.

    Tile (0, 0) has one live pair of full 16x16 tiles (4096 products) and
    12 dead ones: ``A(0, k)`` holds column 0 only, ``B(k, 0)`` row 1
    only.  Its product fill is 1.0 over the live pair and 4096 / (13 *
    4096) < ``DENSE_MIN_FILL`` over the matched pairs.  Tiles (0, 1),
    (1, 0) and (1, 1) have one live full pair each, so they are dense
    either way.
    """
    dead = 12
    k = 1 + dead
    rng = np.random.default_rng(71)
    full = np.arange(T * T)
    a_rows = [full // T, T + full // T]  # A(0, 0), A(1, 0)
    a_cols = [full % T, full % T]
    b_rows = [full // T, full // T]  # B(0, 0), B(0, 1)
    b_cols = [full % T, T + full % T]
    for kk in range(1, k):
        a_rows.append(np.arange(T))  # A(0, kk): column 0 only
        a_cols.append(np.full(T, kk * T))
        b_rows.append(np.full(T, kk * T + 1))  # B(kk, 0): row 1 only
        b_cols.append(np.arange(T))
    a_row, a_col = np.concatenate(a_rows), np.concatenate(a_cols)
    b_row, b_col = np.concatenate(b_rows), np.concatenate(b_cols)
    a = COOMatrix((2 * T, k * T), a_row, a_col, rng.uniform(-1, 1, a_row.size)).to_csr()
    b = COOMatrix((k * T, 2 * T), b_row, b_col, rng.uniform(-1, 1, b_row.size)).to_csr()
    return TileMatrix.from_csr(a), TileMatrix.from_csr(b)


#: ``tile_digest`` of ``tile_spgemm(*_dead_pair_trap())``, recorded with
#: the join that held every matched pair.
_TRAP_DIGEST = "c2224e7ce6799d3a6ac7612d47c3f753290da1ff5a7f674a27b9e62bc9fd3f47"


def test_step3_picks_dense_tiles_by_matched_pairs():
    a, b = _dead_pair_trap()
    chosen = []
    real = step3_module._dense_path_tiles

    def spy(*args):
        chosen.append(real(*args))
        return chosen[-1]

    with mock.patch.object(step3_module, "_dense_path_tiles", spy):
        res = tile_spgemm(a, b)
    assert tile_digest(res.c) == _TRAP_DIGEST

    ref = enumerate_pairs_expand(a, b)
    full = live_entries(a, b, ref)
    chunk = inspect.signature(step3_module.step3_numeric).parameters["chunk_products"].default
    expected = real(a, b, ref, full.csum, chunk, None, np.float64)
    (got,) = chosen
    assert got.tolist() == expected.tolist() == [1, 2, 3]

    # Over its held (live) pairs tile 0 would cross the fill threshold.
    held = np.diff(res.pairs.pair_ptr)
    products = res.stats["products_per_tile"]
    assert held[0] == 1 and res.pairs.matched[0] == 13
    assert products[0] >= step3_module.DENSE_MIN_FILL * T**3 * held[0]


def test_masked_run_reports_the_matched_statistics():
    a, b = _dead_pair_trap()
    plain = tile_spgemm(a, b)
    every = TileMatrix.from_csr(CSRMatrix.from_dense(np.ones((a.shape[0], b.shape[1]))))
    masked = masked_tile_spgemm(a, b, every, keep_empty_tiles=True)
    for key in ("pairs_per_tile", "symbolic_ops", "tile_flops_step1"):
        assert np.array_equal(masked.stats[key], plain.stats[key]), key
    assert plain.stats["tile_flops_step1"] == 16
    assert plain.stats["symbolic_ops"] == 4 * T * T + 12 * T

    # A mask holding tile (0, 0) only keeps its matched pairs and OR count,
    # but step 1's work still covers every matched pair.
    corner = TileMatrix.from_csr(COOMatrix(every.shape, [0], [0], [1.0]).to_csr())
    ref = enumerate_pairs_expand(a, b)
    res = masked_tile_spgemm(a, b, corner, keep_empty_tiles=True)
    assert res.pairs.c_tilerow.tolist() == [0] and res.pairs.c_tilecol.tolist() == [0]
    assert res.stats["pairs_per_tile"].tolist() == [13]
    assert res.stats["symbolic_ops"] == int(ref.matched_a_nnz[0]) == T * T + 12 * T
    assert res.stats["tile_flops_step1"] == ref.num_pairs
