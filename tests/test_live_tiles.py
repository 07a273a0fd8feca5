"""Steps 2 and 3 run on the live candidate tiles only.

A candidate tile of ``C`` is live when the join holds at least one of its
matched pairs; a tile whose pairs are all dead makes no entry and no
product.  The driver hands steps 2 and 3 the live tiles and spreads their
per-tile outputs back to every candidate tile, so ``C`` (dead tiles
included, with nnz 0), ``res.symbolic`` and the statistics must equal an
oracle that runs the same steps over every candidate tile.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

import repro.core.tilespgemm as tilespgemm_module
from repro.core import TileMatrix, masked_tile_spgemm, tile_spgemm
from repro.core.pairs import enumerate_live_pairs
from repro.core.step2 import step2_symbolic
from repro.core.step3 import default_tnnz, step3_numeric
from repro.core.tilespgemm import (
    _restrict_to_mask,
    _tileptr_from_rows,
    collect_stats,
    serial_ledger,
)
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.matrices import generators as gen
from repro.runtime.chunked import chunked_tile_spgemm
from tests.corpus import CORPUS
from tests.test_step3_golden import tile_digest
from tests.test_warp_reference import _hypersparse

T = 16


def _cop_like():
    """A permuted narrow band (the cop20k_A family): many dead candidate tiles."""
    coo = gen.permute_symmetric(gen.banded(600, 4, fill=0.95, seed=5), seed=5)
    a = TileMatrix.from_csr(coo.to_csr())
    return a, a


def _all_dead():
    """One candidate tile whose only matched pair is dead: ``A`` holds
    column 0 only, ``B`` row 1 only."""
    a = COOMatrix((T, T), np.arange(T), np.zeros(T, dtype=np.int64), np.ones(T)).to_csr()
    b = COOMatrix((T, T), np.ones(T, dtype=np.int64), np.arange(T), np.ones(T)).to_csr()
    return TileMatrix.from_csr(a), TileMatrix.from_csr(b)


def _operands(name: str):
    if name == "hypersparse":
        a, b, _ = _hypersparse()
        return a, b
    if name == "cop_like":
        return _cop_like()
    if name == "all_dead":
        return _all_dead()
    case = CORPUS[name]
    return TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b)


def _kwargs(name: str):
    return dict(CORPUS[name].kwargs) if name in CORPUS else {}


def _oracle(a, b, mask=None, tnnz=None, force_accumulator=None, value_dtype=np.float64):
    """The driver with steps 2 and 3 run over every candidate tile, step 2
    on packed bit rows and step 3 listing its own entries."""
    tnnz = default_tnnz(T) if tnnz is None else tnnz
    pairs = enumerate_live_pairs(a, b)
    tile_flops_step1 = int(pairs.matched.sum())
    mask_rows = None
    if mask is not None:
        pairs, mask_rows = _restrict_to_mask(pairs, mask)
    sym = step2_symbolic(a, b, pairs, mask=mask_rows)
    num = step3_numeric(a, b, pairs, sym, tnnz=tnnz, force_accumulator=force_accumulator,
                        mask_filter=mask is not None, value_dtype=value_dtype)
    c = TileMatrix((a.shape[0], b.shape[1]), T,
                   _tileptr_from_rows(pairs.c_tilerow, a.num_tile_rows), pairs.c_tilecol,
                   sym.tilennz, sym.rowptr, num.rowidx, num.colidx, num.val, sym.mask,
                   check=False)
    return c, sym, collect_stats(a, b, pairs, sym, num, tile_flops_step1)


def _assert_equal_arrays(got, want, what):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), what
        assert got.dtype == want.dtype, what
        assert got.shape == want.shape, what
        assert got.tobytes() == want.tobytes(), what
    else:
        assert got == want, what


def _assert_matches_oracle(res, oracle):
    c, sym, stats = oracle
    assert tile_digest(res.c) == tile_digest(c)
    for f in dataclasses.fields(sym):
        _assert_equal_arrays(getattr(res.symbolic, f.name), getattr(sym, f.name), f.name)
    assert set(res.stats) - set(stats) <= {"backend", "masked"}
    for key, want in stats.items():
        _assert_equal_arrays(res.stats[key], want, key)


def _live_frac(a, b) -> float:
    pairs = enumerate_live_pairs(a, b)
    return float(np.mean(np.diff(pairs.pair_ptr) > 0)) if pairs.num_c_tiles else 1.0


_CASES = sorted(CORPUS) + ["hypersparse", "cop_like", "all_dead"]


@pytest.mark.parametrize("name", _CASES)
def test_product_equals_the_all_tiles_oracle(name):
    a, b = _operands(name)
    kwargs = _kwargs(name)
    with np.errstate(over="ignore", invalid="ignore"):
        res = tile_spgemm(a, b, **kwargs)
        oracle = _oracle(a, b, **kwargs)
    _assert_matches_oracle(res, oracle)
    assert res.c.num_tiles == res.pairs.num_c_tiles  # C keeps every candidate tile


@pytest.mark.parametrize("name", ["hypersparse", "cop_like", "all_dead"])
def test_cases_hold_dead_tiles(name):
    assert _live_frac(*_operands(name)) < 1.0  # else the oracle tests prove less


@pytest.mark.parametrize("force_accumulator", ["sparse", "dense"])
def test_forced_accumulator_marks_dead_tiles_like_the_oracle(force_accumulator):
    a, b = _cop_like()
    res = tile_spgemm(a, b, force_accumulator=force_accumulator)
    _assert_matches_oracle(res, _oracle(a, b, force_accumulator=force_accumulator))


@pytest.mark.parametrize("name", ["hypersparse", "cop_like", "moderate_random"])
def test_steps_2_and_3_receive_exactly_the_live_tiles(name):
    a, b = _operands(name)
    seen = {}

    def spy(step, real):
        def run(a, b, pairs, *args, **kwargs):
            seen[step] = pairs
            return real(a, b, pairs, *args, **kwargs)
        return run

    with mock.patch.object(tilespgemm_module, "step2_symbolic",
                           spy("step2", step2_symbolic)), \
         mock.patch.object(tilespgemm_module, "step3_numeric", spy("step3", step3_numeric)):
        res = tile_spgemm(a, b, **_kwargs(name))
    full = res.pairs
    live = np.flatnonzero(np.diff(full.pair_ptr))
    for step in ("step2", "step3"):
        got = seen[step]
        assert np.array_equal(got.c_tilerow, full.c_tilerow[live]), step
        assert np.array_equal(got.c_tilecol, full.c_tilecol[live]), step
        assert np.array_equal(got.matched, full.matched[live]), step
        assert np.all(np.diff(got.pair_ptr) > 0), step
        # Dead tiles hold no pairs: the pair arrays are shared, not copied.
        assert got.pair_a is full.pair_a and got.pair_b is full.pair_b, step
        if live.size == full.num_c_tiles:
            assert got is full, step  # every tile live: no second view


def _one_tile_mask(a, b, tile: int, pairs) -> TileMatrix:
    i, j = int(pairs.c_tilerow[tile]), int(pairs.c_tilecol[tile])
    coo = COOMatrix((a.shape[0], b.shape[1]), [i * T], [j * T], [1.0])
    return TileMatrix.from_csr(coo.to_csr())


#: Masks of the masked runs: every position, or one live or dead tile
#: (``all_dead`` has no live tile).
_MASKED = [(name, which) for name in ("hypersparse", "cop_like", "all_dead")
           for which in ("full", "live_tile", "dead_tile")
           if (name, which) != ("all_dead", "live_tile")]


@pytest.mark.parametrize("name,which", _MASKED)
def test_masked_run_equals_the_oracle(name, which):
    a, b = _operands(name)
    pairs = enumerate_live_pairs(a, b)
    held = np.diff(pairs.pair_ptr)
    if which == "full":
        mask = TileMatrix.from_csr(CSRMatrix.from_dense(np.ones((a.shape[0], b.shape[1]))))
    else:
        tiles = np.flatnonzero(held > 0 if which == "live_tile" else held == 0)
        mask = _one_tile_mask(a, b, int(tiles[tiles.size // 2]), pairs)
    res = masked_tile_spgemm(a, b, mask, keep_empty_tiles=True)
    _assert_matches_oracle(res, _oracle(a, b, mask=mask))
    if which != "full":
        assert res.c.num_tiles == 1


def test_all_dead_product_keeps_its_tiles_with_nnz_0():
    a, b = _all_dead()
    res = tile_spgemm(a, b)
    assert res.pairs.num_c_tiles == 1 and res.pairs.num_pairs == 0
    assert res.c.num_tiles == 1 and res.c.nnz == 0
    assert res.c.tilennz.tolist() == [0, 0]
    assert not res.c.mask.any() and not res.c.rowptr.any()
    assert res.stats["pairs_per_tile"].tolist() == [1]
    assert res.stats["symbolic_ops"] == T
    assert res.stats["num_products"] == 0
    assert tile_spgemm(a, b, keep_empty_tiles=False).c.num_tiles == 0


def test_allocation_ledger_counts_every_candidate_tile():
    a, b = _cop_like()
    assert _live_frac(a, b) < 1.0
    res = tile_spgemm(a, b)
    _, _, stats = _oracle(a, b)
    want = serial_ledger(stats, a.num_tile_rows)
    assert _events(res.alloc) == _events(want)
    assert ("alloc", "rowPtr_C", stats["num_c_tiles"] * T) in _events(res.alloc)


def _events(alloc):
    return [(e.kind, e.label, e.nbytes) for e in alloc.events]


def test_budgeted_chunked_run_resplits_and_is_byte_equal_to_serial():
    a, b = _cop_like()
    clean = tile_spgemm(a, b)
    budget = int(clean.alloc.peak_bytes * 0.5)
    res = chunked_tile_spgemm(a, b, num_batches=2, budget_bytes=budget)
    assert res.stats["resplits"] > 0
    assert tile_digest(res.c) == tile_digest(clean.c)
    for key in ("pairs_per_tile", "products_per_tile", "tile_nnz_counts", "tile_use_dense"):
        _assert_equal_arrays(np.asarray(res.stats[key]), np.asarray(clean.stats[key]), key)
    for key in ("symbolic_ops", "tile_flops_step1", "num_c_tiles", "nnz_c", "sparse_tiles",
                "dense_tiles"):
        assert res.stats[key] == clean.stats[key], key
